#include "common/fault.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sqpr {
namespace fault {
namespace {

struct FaultSpec {
  bool armed = false;
  std::string point;
  long long count = 0;
};

const FaultSpec& Spec() {
  static const FaultSpec spec = [] {
    FaultSpec s;
    const char* raw = std::getenv("SQPR_FAULT");
    if (raw == nullptr || *raw == '\0') return s;
    const char* colon = std::strrchr(raw, ':');
    if (colon == nullptr || colon == raw) {
      std::fprintf(stderr,
                   "SQPR_FAULT: expected \"<point>:<n>\", got \"%s\" — "
                   "fault injection disabled\n",
                   raw);
      return s;
    }
    char* end = nullptr;
    const long long n = std::strtoll(colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || n < 1) {
      std::fprintf(stderr,
                   "SQPR_FAULT: crash count must be a positive integer in "
                   "\"%s\" — fault injection disabled\n",
                   raw);
      return s;
    }
    s.armed = true;
    s.point.assign(raw, static_cast<size_t>(colon - raw));
    s.count = n;
    return s;
  }();
  return spec;
}

// One counter per distinct armed point suffices: a process runs under a
// single SQPR_FAULT spec, so hits of other points are never counted.
long long hits = 0;

}  // namespace

bool Armed(const char* point) {
  const FaultSpec& spec = Spec();
  return spec.armed && spec.point == point;
}

void MaybeCrash(const char* point) {
  const FaultSpec& spec = Spec();
  if (!spec.armed || spec.point != point) return;
  const long long hit = ++hits;
  if (hit != spec.count) return;
  std::fprintf(stderr, "SQPR_FAULT: injected crash at %s hit %lld\n", point,
               hit);
  std::fflush(stderr);
  std::_Exit(kCrashExitCode);
}

}  // namespace fault
}  // namespace sqpr
