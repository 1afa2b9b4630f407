#ifndef SQPR_COMMON_FILE_H_
#define SQPR_COMMON_FILE_H_

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/status.h"

namespace sqpr {

/// Replaces the file at `path` with `contents`. Fails, quoting the path
/// and the system error, unless every byte is written, flushed and
/// closed: a full device may report only at fflush or fclose.
/// Checkpoints use WriteFileAtomic.
inline Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open \"" + path +
                                   "\": " + std::strerror(errno));
  }
  const bool written =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size() &&
      std::fflush(f) == 0;
  const int write_errno = errno;
  if (std::fclose(f) != 0 || !written) {
    return Status::Internal("cannot write \"" + path + "\": " +
                            std::strerror(written ? errno : write_errno));
  }
  return Status::OK();
}

}  // namespace sqpr

#endif  // SQPR_COMMON_FILE_H_
