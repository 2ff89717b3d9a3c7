#pragma once

#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrepro::io {

/// Filesystem abstraction for the persistence stack (result store, campaign
/// journal, summary publication). Everything that must survive a crash goes
/// through a `Vfs`, for one reason: the same code path can run against the
/// real filesystem in production and against `FaultVfs` in tests, where
/// torn writes, dropped fsyncs, ENOSPC, EIO, and whole-process crashes are
/// injected deterministically from a schedule — the persistence-layer
/// counterpart of `src/faults` for the simulated cloud.
///
/// The durability model is the POSIX one the hardening code must respect:
///  - `append` data is volatile until the file is `sync`ed;
///  - `rename` atomically replaces the *name*, but says nothing about the
///    durability of the renamed file's *content* — publish-by-rename is
///    only crash-safe as fsync-before-rename;
///  - a crash may keep any byte prefix of unsynced data (torn write).

/// An I/O operation failed; carries the (possibly injected) errno value.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, int error_code);
  int error_code() const noexcept { return error_code_; }

 private:
  int error_code_;
};

/// Thrown by `FaultVfs` when its scheduled crash point is reached, and by
/// every operation after it ("the process is dead"). Deliberately *not* a
/// std::runtime_error: recovery paths that swallow I/O errors must never
/// swallow a simulated crash, or the torture harness would measure the
/// recovery code instead of the crash.
class SimulatedCrash : public std::exception {
 public:
  explicit SimulatedCrash(std::uint64_t op);
  const char* what() const noexcept override { return what_.c_str(); }
  std::uint64_t op() const noexcept { return op_; }

 private:
  std::string what_;
  std::uint64_t op_;
};

enum class WriteMode {
  kTruncate,   ///< Create or truncate to empty.
  kAppend,     ///< Create or append at the end.
  kExclusive,  ///< Create; IoError(EEXIST) when the file already exists.
  /// Create, or write from offset 0 over the existing bytes without
  /// truncating. For advisory data only, rewritten at one fixed length: a
  /// crash may leave any mix of old and new bytes in the overwritten range
  /// and any prefix of the bytes written past the old end.
  kOverwrite,
};

/// A writable handle. Writes are unbuffered (one syscall per `append`), so
/// the on-disk length always equals the bytes accepted so far — the
/// invariant `FaultVfs` crash rollback relies on.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual void append(std::string_view data) = 0;
  /// Flushes file content to stable storage (fsync).
  virtual void sync() = 0;
  /// Idempotent; also called by the destructor (which never throws).
  virtual void close() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual std::unique_ptr<WritableFile> open_write(
      const std::filesystem::path& path, WriteMode mode) = 0;

  /// Whole-file read; nullopt when the file does not exist.
  virtual std::optional<std::string> read_file(const std::filesystem::path& path) = 0;

  virtual bool exists(const std::filesystem::path& path) = 0;
  /// 0 when the file does not exist.
  virtual std::uintmax_t file_size(const std::filesystem::path& path) = 0;

  /// Atomic replace (POSIX rename).
  virtual void rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) = 0;
  virtual bool remove(const std::filesystem::path& path) = 0;
  virtual std::uintmax_t remove_all(const std::filesystem::path& path) = 0;
  virtual void create_directories(const std::filesystem::path& path) = 0;
  /// Immediate children, name-sorted; empty when the directory is absent.
  virtual std::vector<std::filesystem::path> list_dir(
      const std::filesystem::path& path) = 0;
  virtual void truncate(const std::filesystem::path& path, std::uintmax_t size) = 0;
  /// Flushes a directory's entries (new names, renames) to stable storage.
  virtual void sync_dir(const std::filesystem::path& path) = 0;
};

/// Passthrough to the real filesystem. `append`/`sync` use unbuffered POSIX
/// write/fsync so durability points are real, not libc-buffer illusions.
class RealVfs : public Vfs {
 public:
  std::unique_ptr<WritableFile> open_write(const std::filesystem::path& path,
                                           WriteMode mode) override;
  std::optional<std::string> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  std::uintmax_t file_size(const std::filesystem::path& path) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  bool remove(const std::filesystem::path& path) override;
  std::uintmax_t remove_all(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(
      const std::filesystem::path& path) override;
  void truncate(const std::filesystem::path& path, std::uintmax_t size) override;
  void sync_dir(const std::filesystem::path& path) override;
};

/// Process-wide passthrough instance: the default everywhere a `Vfs*` is
/// optional.
Vfs& real_vfs();

}  // namespace cloudrepro::io
