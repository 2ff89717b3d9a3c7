#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "io/vfs.h"

namespace cloudrepro::io {

/// Deterministic fault schedule for `FaultVfs`, in the same plain-data,
/// schedule-driven style as `faults::FaultPlan`: the whole fault history of
/// a torture run is a pure function of this struct, so any failing crash
/// point replays exactly.
struct FaultVfsOptions {
  /// Crash — throw `SimulatedCrash` and roll volatile state back — when the
  /// running operation counter reaches this 1-based index. 0 disables. The
  /// torture harness sweeps this over [1, FaultVfs::ops()] of a clean run.
  std::uint64_t crash_at_op = 0;

  /// Seeds the deterministic "how much of the unsynced tail survived"
  /// draw at the crash point (torn writes at byte granularity).
  std::uint64_t torn_write_seed = 0;

  /// On crash, truncate every file written through this vfs back to its
  /// last-synced length plus a deterministic torn fraction of the unsynced
  /// tail. Off = crashes keep all written bytes (a journaling-FS-with-
  /// barriers model; useful to isolate logic bugs from durability bugs).
  bool lose_unsynced_on_crash = true;

  /// Total `append` budget in bytes; the append that would exceed it writes
  /// the prefix that fits and fails with IoError(ENOSPC). 0 = unlimited.
  std::uint64_t enospc_after_bytes = 0;

  /// 1-based operation indices that fail with IoError(EIO).
  std::vector<std::uint64_t> eio_at_ops;

  /// 1-based operation indices whose `sync`/`sync_dir` silently does
  /// nothing — the durability point the caller thinks it reached never
  /// happened, so a later crash loses more than expected.
  std::vector<std::uint64_t> dropped_fsyncs;
};

/// Fault-injecting decorator over another `Vfs`. Every operation increments
/// one shared counter; the schedule above keys off that counter, which
/// makes "crash at the k-th syscall" a first-class, sweepable quantity.
///
/// Durability model: per-file last-synced lengths are tracked on the side.
/// `sync` advances a file's synced length to its current size (unless
/// dropped); `rename` carries the synced length to the new name; a crash
/// truncates every tracked file to
///   synced + (deterministic draw in [0, unsynced])
/// — i.e. an arbitrary byte-granularity torn tail — then poisons the vfs so
/// every later operation throws `SimulatedCrash` too ("the process died").
/// Restarting means constructing a fresh vfs over the same backing store.
///
/// Limit: a `kOverwrite` open is tracked like `kAppend` — the bytes present
/// at open count as durable and only growth past them is volatile. A crash
/// therefore never tears or rolls back bytes overwritten in place, which a
/// real device may do; tests of such data exercise torn growth only.
class FaultVfs : public Vfs {
 public:
  explicit FaultVfs(Vfs& inner, FaultVfsOptions options = {});

  /// Operations issued so far (the crash-point domain).
  std::uint64_t ops() const noexcept { return ops_; }
  /// Bytes accepted by `append` so far (the ENOSPC domain).
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Number of `sync`/`sync_dir` calls silently dropped so far.
  std::uint64_t dropped_sync_count() const noexcept { return dropped_syncs_; }
  bool crashed() const noexcept { return crashed_; }

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

 private:
  friend class FaultWritableFile;

  /// Advances the op counter and applies the schedule: EIO, then crash.
  /// Returns true when this op's sync should be dropped.
  bool step(const std::string& what);
  [[noreturn]] void crash();
  void note_written(const std::filesystem::path& path);
  void note_synced(const std::filesystem::path& path);
  void charge_append(const std::filesystem::path& path, std::string_view data,
                     WritableFile& backing);

  Vfs& inner_;
  FaultVfsOptions options_;
  std::uint64_t ops_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t dropped_syncs_ = 0;
  bool crashed_ = false;
  /// Last-synced length of every file written through this vfs.
  std::map<std::filesystem::path, std::uintmax_t> synced_;
};

}  // namespace cloudrepro::io
