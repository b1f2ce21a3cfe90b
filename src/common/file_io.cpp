#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>

#include "common/error.h"

namespace ropus::io {

namespace {
std::atomic<std::uint64_t> g_file_fsyncs{0};
std::atomic<std::uint64_t> g_dir_fsyncs{0};

[[noreturn]] void fail_errno(const std::string& what,
                             const std::filesystem::path& path) {
  throw IoError(what + " " + path.string() + ": " + std::strerror(errno));
}
}  // namespace

std::optional<std::string> read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    fail_errno("cannot open", path);
  }
  std::string content;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    content.reserve(static_cast<std::size_t>(st.st_size));
  }
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail_errno("cannot read", path);
    }
    content.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
}

FsyncStats fsync_stats() {
  return FsyncStats{g_file_fsyncs.load(std::memory_order_relaxed),
                    g_dir_fsyncs.load(std::memory_order_relaxed)};
}

void fsync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail_errno("cannot open directory", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("cannot fsync directory", dir);
  }
  ::close(fd);
  g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed);
}

void write_file_atomic(const std::filesystem::path& path,
                       std::string_view content) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  // Pid-qualified name keeps concurrent writers from clobbering each
  // other's staging file (the final rename still races, but each rename is
  // atomic, so the destination is always one writer's complete output).
  const std::filesystem::path tmp =
      dir / (path.filename().string() + ".tmp." +
             std::to_string(static_cast<unsigned long>(::getpid())));

  const int fd = ::open(tmp.string().c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno("cannot open for writing", tmp);
  const auto cleanup_and_fail = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    errno = saved;
    fail_errno(what, tmp);
  };
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      cleanup_and_fail("write failed for");
    }
    off += static_cast<std::size_t>(n);
  }
  // Data must be on disk before the rename: otherwise the journal entry for
  // the new name can survive a power cut while the blocks it points at do
  // not, leaving a complete-looking file full of zeros.
  if (::fsync(fd) != 0) cleanup_and_fail("cannot fsync");
  g_file_fsyncs.fetch_add(1, std::memory_order_relaxed);
  if (::close(fd) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    fail_errno("cannot close", tmp);
  }

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw IoError("cannot rename " + tmp.string() + " to " + path.string() +
                  ": " + ec.message());
  }
  // And the rename itself must reach the disk: the new directory entry is
  // ordinary directory data until its directory is synced.
  fsync_parent_dir(path);
}

}  // namespace ropus::io
