#include "common/fileio.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace fairgen {

bool WriteFileAtomicSignalSafe(const char* path, const char* tmp_path,
                               const char* data, size_t size) {
  const int saved_errno = errno;
  const int fd = ::open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  bool ok = fd >= 0;
  while (ok && size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) {
      data += n;
      size -= static_cast<size_t>(n);
    }
  }
  if (fd >= 0) {
    ok = ok && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    if (ok) ok = ::rename(tmp_path, path) == 0;
    if (!ok) ::unlink(tmp_path);
  }
  errno = saved_errno;
  return ok;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  if (!WriteFileAtomicSignalSafe(path.c_str(), tmp.c_str(), bytes.data(),
                                 bytes.size())) {
    return Status::IOError("atomic write failed: " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed: " + path);
  }
  return buf.str();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status MakeDirectories(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  std::string partial;
  partial.reserve(path.size());
  size_t i = 0;
  while (i < path.size()) {
    size_t next = path.find('/', i + 1);
    if (next == std::string::npos) next = path.size();
    partial = path.substr(0, next);
    if (!partial.empty() && partial != "/" &&
        ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir failed: " + partial + ": " +
                             ::strerror(errno));
    }
    i = next;
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("not a directory: " + path);
  }
  return Status::OK();
}

}  // namespace fairgen
