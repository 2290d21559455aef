#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace cyclestream::io {
namespace {

SyscallFaults* g_faults = nullptr;

// Consumes one injected EINTR from `budget` if armed. Returns true when the
// caller should behave as if the syscall failed with EINTR.
bool InjectEintr(int* budget) {
  if (g_faults == nullptr || *budget <= 0) return false;
  --*budget;
  errno = EINTR;
  return true;
}

std::size_t CapTransfer(std::size_t n, std::size_t cap) {
  return cap > 0 && cap < n ? cap : n;
}

int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

// close() is NOT retried on EINTR: POSIX leaves the fd state unspecified
// and on Linux the descriptor is gone either way — retrying risks closing
// a descriptor another thread just opened.
void CloseQuiet(int fd) { ::close(fd); }

}  // namespace

SyscallFaults* ExchangeSyscallFaults(SyscallFaults* faults) {
  SyscallFaults* prev = g_faults;
  g_faults = faults;
  return prev;
}

bool ReadFull(int fd, void* buf, std::size_t n, std::size_t* got) {
  char* p = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_reads)) continue;
    std::size_t want = n - done;
    if (g_faults != nullptr) want = CapTransfer(want, g_faults->short_read_cap);
    const ssize_t r = ::read(fd, p + done, want);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (got != nullptr) *got = done;
      return false;
    }
    if (r == 0) break;  // EOF.
    done += static_cast<std::size_t>(r);
  }
  if (got != nullptr) *got = done;
  return true;
}

bool WriteFull(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_writes)) continue;
    std::size_t want = n - done;
    if (g_faults != nullptr) {
      want = CapTransfer(want, g_faults->short_write_cap);
    }
    const ssize_t w = ::write(fd, p + done, want);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

bool FsyncFd(int fd, const std::string& label) {
  for (;;) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_fsyncs)) continue;
    if (::fsync(fd) == 0) {
      if (g_faults != nullptr) g_faults->fsynced.push_back(label);
      return true;
    }
    if (errno != EINTR) return false;
  }
}

std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool FsyncParentDir(const std::string& path, std::string* error) {
  const std::string dir = DirName(path);
  const int fd = OpenRetry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open directory " + dir + " for fsync: " +
               std::strerror(errno);
    }
    return false;
  }
  const bool ok = FsyncFd(fd, dir);
  if (!ok && error != nullptr) {
    *error = "fsync failed for directory " + dir + ": " + std::strerror(errno);
  }
  CloseQuiet(fd);
  return ok;
}

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  // Size the string from fstat and read straight into it. The extra byte
  // lets an unchanged file end in the first ReadFull; a file that grew
  // since the fstat (an appended heartbeat log) is read on to EOF.
  struct stat st;
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  std::string data(hint + 1, '\0');
  std::size_t len = 0;
  for (;;) {
    std::size_t got = 0;
    if (!ReadFull(fd, data.data() + len, data.size() - len, &got)) {
      if (error != nullptr) *error = "I/O error reading " + path;
      CloseQuiet(fd);
      return false;
    }
    len += got;
    if (len < data.size()) break;  // EOF.
    data.resize(2 * data.size());
  }
  CloseQuiet(fd);
  data.resize(len);
  *out = std::move(data);
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd =
      OpenRetry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  if (!WriteFull(fd, data.data(), data.size())) {
    if (error != nullptr) *error = "write failed for " + tmp;
    CloseQuiet(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (!FsyncFd(fd, tmp)) {
    if (error != nullptr) *error = "fsync failed for " + tmp;
    CloseQuiet(fd);
    std::remove(tmp.c_str());
    return false;
  }
  CloseQuiet(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename " + tmp + " -> " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  // The rename made the content visible; the directory fsync makes it
  // durable. Failing here is a durability loss, not an atomicity one — the
  // new file is in place — so report it honestly and let the caller decide.
  return FsyncParentDir(path, error);
}

bool AppendToFile(const std::string& path, std::string_view data,
                  std::string* error) {
  const int fd = OpenRetry(path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path + " for append";
    return false;
  }
  const bool ok = WriteFull(fd, data.data(), data.size());
  if (!ok && error != nullptr) *error = "append failed for " + path;
  CloseQuiet(fd);
  return ok;
}

}  // namespace cyclestream::io
