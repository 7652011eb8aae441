#include "core/width_dispatch.h"

#include <cstdlib>
#include <string>

#include "ir/wide_word.h"

namespace udsim {

namespace {

constexpr int kLadder[] = {256, 128, 64, 32};

[[nodiscard]] bool cpu_has_avx2() noexcept {
#if defined(UDSIM_W256_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  // The u256 TU was built as portable lane loops (or the target has no CPU
  // feature probe): no ISA requirement beyond what the whole build assumes.
  return true;
#endif
}

/// UDSIM_FORCE_WIDTH as an int, or 0 when unset/unparseable.
[[nodiscard]] int force_width_env() noexcept {
  const char* s = std::getenv("UDSIM_FORCE_WIDTH");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s) return 0;
  return static_cast<int>(v);
}

}  // namespace

bool width_compiled(int bits) noexcept {
  switch (bits) {
    case 32:
    case 64:
    case 256:
      return true;
    case 128:
      return UDSIM_HAS_W128 != 0;
    default:
      return false;
  }
}

bool width_available(int bits) noexcept {
  if (!width_compiled(bits)) return false;
  return bits != 256 || cpu_has_avx2();
}

std::vector<int> supported_widths() {
  std::vector<int> widths;
  for (auto it = std::end(kLadder); it != std::begin(kLadder);) {
    --it;
    if (width_available(*it)) widths.push_back(*it);
  }
  return widths;
}

int widest_width() noexcept {
  for (const int w : kLadder) {
    if (width_available(w)) return w;
  }
  return 32;
}

WidthChoice dispatch_width(int requested, Diagnostics* diag,
                           MetricsRegistry* metrics) {
  WidthChoice c;
  const int forced = force_width_env();
  c.forced = forced != 0;
  c.requested = c.forced ? forced : requested;
  int want = c.requested;
  if (want == 0) want = 32;  // unset; make_simulator widens PC-set/LCC first
  if (want == kWidthWidest) want = widest_width();
  if (width_available(want)) {
    c.word_bits = want;
  } else {
    // Step down the ladder to the widest available width not above the
    // request; an undersized or unknown request climbs back up to 32.
    int chosen = 32;
    for (const int w : kLadder) {
      if (w <= want && width_available(w)) {
        chosen = w;
        break;
      }
    }
    c.word_bits = chosen;
    c.fell_back = true;
    if (diag) {
      diag->report(DiagCode::WidthFallback, DiagSeverity::Warning,
                   std::to_string(want) + "-bit lanes",
                   std::string(c.forced ? "forced" : "requested") +
                       " width is unavailable on this build/CPU; dispatching " +
                       std::to_string(chosen) + "-bit lanes");
    }
    metric_add(metrics, "dispatch.width_fallbacks", 1);
  }
  if (metrics) {
    metrics->counter("dispatch.width")
        .set(static_cast<std::uint64_t>(c.word_bits));
  }
  return c;
}

}  // namespace udsim
