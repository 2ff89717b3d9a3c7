#include "io/fault_vfs.h"

#include <cerrno>
#include <utility>

namespace cloudrepro::io {

namespace {

/// SplitMix64-style mixer (same construction as the campaign's sub-seed
/// derivation): the torn-tail draw is a pure function of
/// (torn_write_seed, crash op, file index).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool contains(const std::vector<std::uint64_t>& ops, std::uint64_t op) noexcept {
  for (const auto candidate : ops) {
    if (candidate == op) return true;
  }
  return false;
}

}  // namespace

/// Forwards to the backing file, routing every call through the fault
/// schedule first. Named (not anonymous-namespace) so the friend
/// declaration in FaultVfs resolves to it.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultVfs& vfs, std::filesystem::path path,
                    std::unique_ptr<WritableFile> inner)
      : vfs_(vfs), path_(std::move(path)), inner_(std::move(inner)) {}

  void append(std::string_view data) override {
    vfs_.charge_append(path_, data, *inner_);
  }

  void sync() override {
    if (vfs_.crashed_) throw SimulatedCrash{vfs_.options_.crash_at_op};
    if (vfs_.step("fsync " + path_.string())) {
      ++vfs_.dropped_syncs_;
      return;  // Dropped: the durability point silently never happens.
    }
    inner_->sync();
    vfs_.note_synced(path_);
  }

  void close() override {
    // After a crash the handle is dead; the backing fd closes quietly when
    // this object is destroyed.
    if (!vfs_.crashed_) inner_->close();
  }

 private:
  FaultVfs& vfs_;
  std::filesystem::path path_;
  std::unique_ptr<WritableFile> inner_;
};

FaultVfs::FaultVfs(Vfs& inner, FaultVfsOptions options)
    : inner_(inner), options_(std::move(options)) {}

bool FaultVfs::step(const std::string& what) {
  if (crashed_) throw SimulatedCrash{options_.crash_at_op};
  ++ops_;
  if (contains(options_.eio_at_ops, ops_)) throw IoError{what, EIO};
  if (options_.crash_at_op != 0 && ops_ == options_.crash_at_op) crash();
  return contains(options_.dropped_fsyncs, ops_);
}

void FaultVfs::crash() {
  crashed_ = true;
  if (options_.lose_unsynced_on_crash) {
    // Roll every file back to its synced length plus a deterministic torn
    // fraction of the unsynced tail — the on-disk state an fsck would find.
    std::uint64_t file_index = 0;
    for (const auto& [path, synced] : synced_) {
      ++file_index;
      const std::uintmax_t current = inner_.file_size(path);
      if (current <= synced) continue;
      const std::uintmax_t unsynced = current - synced;
      const std::uintmax_t keep =
          synced + mix(mix(options_.torn_write_seed, ops_), file_index) %
                       (unsynced + 1);
      inner_.truncate(path, keep);
    }
  }
  throw SimulatedCrash{ops_};
}

void FaultVfs::note_written(const std::filesystem::path& path) {
  if (synced_.find(path) == synced_.end()) synced_[path] = inner_.file_size(path);
}

void FaultVfs::note_synced(const std::filesystem::path& path) {
  synced_[path] = inner_.file_size(path);
}

void FaultVfs::charge_append(const std::filesystem::path& path,
                             std::string_view data, WritableFile& backing) {
  if (crashed_) throw SimulatedCrash{options_.crash_at_op};
  ++ops_;
  if (contains(options_.eio_at_ops, ops_)) {
    throw IoError{"write " + path.string(), EIO};
  }
  if (options_.crash_at_op != 0 && ops_ == options_.crash_at_op) {
    // The crashing write reaches the page cache in full; how much survives
    // is the crash rollback's deterministic draw over the unsynced tail.
    backing.append(data);
    bytes_written_ += data.size();
    crash();
  }
  if (options_.enospc_after_bytes != 0 &&
      bytes_written_ + data.size() > options_.enospc_after_bytes) {
    // Short write: the prefix that fits lands, then the device is full.
    const std::uint64_t fit = options_.enospc_after_bytes - bytes_written_;
    backing.append(data.substr(0, fit));
    bytes_written_ += fit;
    throw IoError{"write " + path.string(), ENOSPC};
  }
  backing.append(data);
  bytes_written_ += data.size();
}

std::unique_ptr<WritableFile> FaultVfs::open_write(
    const std::filesystem::path& path, WriteMode mode) {
  step("open " + path.string());
  if (mode == WriteMode::kAppend || mode == WriteMode::kOverwrite) {
    note_written(path);  // Pre-existing bytes are already durable.
  } else {
    synced_[path] = 0;  // Truncate/create: nothing durable yet.
  }
  return std::make_unique<FaultWritableFile>(*this, path,
                                             inner_.open_write(path, mode));
}

std::optional<std::string> FaultVfs::read_file(const std::filesystem::path& path) {
  step("read " + path.string());
  return inner_.read_file(path);
}

bool FaultVfs::exists(const std::filesystem::path& path) {
  step("stat " + path.string());
  return inner_.exists(path);
}

std::uintmax_t FaultVfs::file_size(const std::filesystem::path& path) {
  step("stat " + path.string());
  return inner_.file_size(path);
}

void FaultVfs::rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) {
  step("rename " + from.string());
  // The *name* change is atomic; the content's durability travels with the
  // file. A file never written through this vfs counts as fully durable.
  std::uintmax_t synced = inner_.file_size(from);
  if (const auto it = synced_.find(from); it != synced_.end()) {
    synced = it->second;
    synced_.erase(it);
  }
  inner_.rename(from, to);
  synced_[to] = synced;
}

bool FaultVfs::remove(const std::filesystem::path& path) {
  step("remove " + path.string());
  synced_.erase(path);
  return inner_.remove(path);
}

std::uintmax_t FaultVfs::remove_all(const std::filesystem::path& path) {
  step("remove_all " + path.string());
  for (auto it = synced_.begin(); it != synced_.end();) {
    const auto& tracked = it->first;
    const auto rel = tracked.lexically_relative(path);
    const bool under = tracked == path ||
                       (!rel.empty() && rel.native().compare(0, 2, "..") != 0);
    it = under ? synced_.erase(it) : std::next(it);
  }
  return inner_.remove_all(path);
}

void FaultVfs::create_directories(const std::filesystem::path& path) {
  step("mkdir " + path.string());
  inner_.create_directories(path);
}

std::vector<std::filesystem::path> FaultVfs::list_dir(
    const std::filesystem::path& path) {
  step("list " + path.string());
  return inner_.list_dir(path);
}

void FaultVfs::truncate(const std::filesystem::path& path, std::uintmax_t size) {
  step("truncate " + path.string());
  inner_.truncate(path, size);
  if (const auto it = synced_.find(path); it != synced_.end() && it->second > size) {
    it->second = size;
  }
}

void FaultVfs::sync_dir(const std::filesystem::path& path) {
  if (step("fsync dir " + path.string())) {
    ++dropped_syncs_;
    return;
  }
  inner_.sync_dir(path);
}

}  // namespace cloudrepro::io
