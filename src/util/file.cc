#include "util/file.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace sash::util {

bool ReadFile(const std::string& path, std::string* out) {
  const bool stdin_path = path == "-";
  int fd = stdin_path ? STDIN_FILENO : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  out->clear();
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out->reserve(static_cast<size_t>(st.st_size));
  }
  bool ok = true;
  char buf[16384];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ok = false;
      break;
    }
  }
  if (!stdin_path) {
    ::close(fd);
  }
  return ok;
}

}  // namespace sash::util
