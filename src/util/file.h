// Whole-file reads for the CLI and the cache: one open, an fstat-sized
// buffer, read(2) until EOF. No iostreams — their first use costs a warm
// cache hit more than the read itself.
#ifndef SASH_UTIL_FILE_H_
#define SASH_UTIL_FILE_H_

#include <string>

namespace sash::util {

// Replaces *out with the contents of `path` ("-" reads standard input).
// Returns false when the file cannot be opened or read; *out is then
// unspecified. Callers word their own error messages.
bool ReadFile(const std::string& path, std::string* out);

}  // namespace sash::util

#endif  // SASH_UTIL_FILE_H_
