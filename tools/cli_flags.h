// Strict parsing of the command-line tools' numeric flag values. The
// whole token must be a number (no trailing characters, no leading
// space), a real value must be finite, and every value must lie inside
// its flag's range. A bad value is reported on stderr as
//   invalid value "--cpu: abc" (want a finite number >= 0)
// and the tool exits with status 2.

#ifndef SQPR_TOOLS_CLI_FLAGS_H_
#define SQPR_TOOLS_CLI_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace sqpr::cli {

/// Largest accepted cluster: a cluster stores a hosts × hosts link
/// matrix, so the bound keeps a typo from allocating gigabytes.
inline constexpr long long kMaxHosts = 1024;
/// Largest accepted stream, query or event count.
inline constexpr long long kMaxCount = 10'000'000;

inline void ReportBadValue(const char* flag, const char* value,
                           const std::string& want) {
  std::fprintf(stderr, "invalid value \"%s: %s\" (want %s)\n", flag, value,
               want.c_str());
}

/// Parses a base-10 integer token in [lo, hi].
inline bool ParseInteger(const char* text, long long lo, long long hi,
                         long long* out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) return false;
  *out = value;
  return true;
}

/// Integer flag value in [lo, hi] stored into *out; reports and returns
/// false otherwise.
template <typename T>
bool IntFlag(const char* flag, const char* text, long long lo, long long hi,
             T* out) {
  long long value = 0;
  if (!ParseInteger(text, lo, hi, &value)) {
    ReportBadValue(flag, text,
                   "an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Unsigned 64-bit flag value (seeds): any base-10 digits that fit.
inline bool SeedFlag(const char* flag, const char* text, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || errno != 0 ||
      *end != '\0') {
    ReportBadValue(flag, text, "an unsigned 64-bit integer");
    return false;
  }
  *out = value;
  return true;
}

/// Parses a finite real token; `*out` is written only on success.
inline bool ParseReal(const char* text, double* out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Finite real flag value >= 0 (> 0 when `positive`) stored into *out;
/// reports and returns false otherwise.
inline bool RealFlag(const char* flag, const char* text, double* out,
                     bool positive = false) {
  double value = 0.0;
  if (!ParseReal(text, &value) || value < 0 || (positive && value == 0)) {
    ReportBadValue(flag, text,
                   positive ? "a finite number > 0" : "a finite number >= 0");
    return false;
  }
  *out = value;
  return true;
}

/// Comma-separated join arities, each an integer in [2, 12].
inline bool AritiesFlag(const char* flag, const char* text,
                        std::vector<int>* out) {
  std::vector<int> arities;
  const std::string list = text;
  size_t pos = 0;
  bool ok = !list.empty();
  while (ok && pos <= list.size()) {
    size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    long long k = 0;
    ok = ParseInteger(list.substr(pos, next - pos).c_str(), 2, 12, &k);
    arities.push_back(static_cast<int>(k));
    pos = next + 1;
  }
  if (!ok) {
    ReportBadValue(flag, text, "comma-separated integers in [2, 12]");
    return false;
  }
  *out = std::move(arities);
  return true;
}

}  // namespace sqpr::cli

#endif  // SQPR_TOOLS_CLI_FLAGS_H_
