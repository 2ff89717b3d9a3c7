#include "io/vfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace cloudrepro::io {

IoError::IoError(const std::string& what, int error_code)
    : std::runtime_error(what + " (" + std::strerror(error_code) + ")"),
      error_code_(error_code) {}

SimulatedCrash::SimulatedCrash(std::uint64_t op)
    : what_("simulated crash at vfs op " + std::to_string(op)), op_(op) {}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError{what, errno};
}

/// Unbuffered POSIX-backed file: the on-disk length tracks `append` exactly,
/// and `sync` is a real fsync.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override { close_quietly(); }

  void append(std::string_view data) override {
    if (fd_ < 0) throw IoError{"append to closed file " + path_, EBADF};
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write " + path_);
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  void sync() override {
    if (fd_ < 0) throw IoError{"sync of closed file " + path_, EBADF};
    if (::fsync(fd_) != 0) throw_errno("fsync " + path_);
  }

  void close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      throw_errno("close " + path_);
    }
    fd_ = -1;
  }

 private:
  void close_quietly() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_;
  std::string path_;
};

}  // namespace

std::unique_ptr<WritableFile> RealVfs::open_write(const std::filesystem::path& path,
                                                  WriteMode mode) {
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  switch (mode) {
    case WriteMode::kTruncate: flags |= O_TRUNC; break;
    case WriteMode::kAppend: flags |= O_APPEND; break;
    case WriteMode::kExclusive: flags |= O_EXCL; break;
    case WriteMode::kOverwrite: break;
  }
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("open " + path.string());
  return std::make_unique<PosixWritableFile>(fd, path.string());
}

std::optional<std::string> RealVfs::read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open " + path.string());
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw IoError{"read " + path.string(), saved};
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

bool RealVfs::exists(const std::filesystem::path& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

std::uintmax_t RealVfs::file_size(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

void RealVfs::rename(const std::filesystem::path& from,
                     const std::filesystem::path& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("rename " + from.string() + " -> " + to.string());
  }
}

bool RealVfs::remove(const std::filesystem::path& path) {
  std::error_code ec;
  const bool removed = std::filesystem::remove(path, ec);
  if (ec) throw IoError{"remove " + path.string(), ec.value()};
  return removed;
}

std::uintmax_t RealVfs::remove_all(const std::filesystem::path& path) {
  std::error_code ec;
  const auto removed = std::filesystem::remove_all(path, ec);
  if (ec) throw IoError{"remove_all " + path.string(), ec.value()};
  return removed;
}

void RealVfs::create_directories(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw IoError{"create_directories " + path.string(), ec.value()};
}

std::vector<std::filesystem::path> RealVfs::list_dir(
    const std::filesystem::path& path) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{path, ec}) {
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RealVfs::truncate(const std::filesystem::path& path, std::uintmax_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  if (ec) throw IoError{"truncate " + path.string(), ec.value()};
}

void RealVfs::sync_dir(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open dir " + path.string());
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw IoError{"fsync dir " + path.string(), saved};
  }
  ::close(fd);
}

Vfs& real_vfs() {
  static RealVfs instance;
  return instance;
}

}  // namespace cloudrepro::io
