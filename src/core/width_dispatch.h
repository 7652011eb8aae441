// Runtime lane-width dispatch (DESIGN.md §5j).
//
// The executors run at 32, 64, 128 (__int128) and 256 (four uint64 lanes,
// AVX2-vectorized where the build applied -mavx2) bits per arena word. This
// module owns the width ladder — which widths this build compiled, which
// the running CPU may execute — and the one dispatch point the facades call
// at make_simulator / SimService-construction time.
//
// `UDSIM_FORCE_WIDTH=<bits>` overrides every request, the deterministic
// testing hook: forcing an unavailable or unknown width steps down the
// ladder (256 → 128 → 64 → 32) with a structured WidthFallback diagnostic
// instead of failing. The chosen width is recorded in the `dispatch.width`
// gauge when a registry is attached.
//
// An unset request (0) means a per-engine default (engine_width_request):
// the lane-packed engines (PC-set, LCC) settle one vector per bit lane, so
// they take the widest lane; the parallel variants and Native keep 32 bits,
// where their time-packed fields run fastest. A fallback chain or a
// SimService resolves one width for all its engines instead, so their
// budget checks and cache keys compare engines at the same width.
#pragma once

#include <vector>

#include "core/engine_kind.h"
#include "netlist/diagnostics.h"
#include "obs/metrics.h"

namespace udsim {

/// Request value meaning "the widest lane this build + CPU supports".
inline constexpr int kWidthWidest = -1;

/// True when this build carries an executor for the width (128 depends on
/// the compiler's __int128; 32/64/256 are always compiled).
[[nodiscard]] bool width_compiled(int bits) noexcept;

/// True when the width is compiled AND the running CPU may execute it (the
/// 256-bit lane requires AVX2 whenever its TU was built with -mavx2).
[[nodiscard]] bool width_available(int bits) noexcept;

/// Ascending list of available widths; always contains 32 and 64.
[[nodiscard]] std::vector<int> supported_widths();

/// The widest available width.
[[nodiscard]] int widest_width() noexcept;

struct WidthChoice {
  int word_bits = 32;      ///< the width the executors will run at
  int requested = 0;       ///< caller's request (after any env override)
  bool forced = false;     ///< UDSIM_FORCE_WIDTH took effect
  bool fell_back = false;  ///< request unavailable; ladder stepped down
};

/// Resolve a width request. `requested` is 0 (32 bits here; see
/// engine_width_request for the per-engine meaning make_simulator gives
/// it), kWidthWidest, or an explicit bit count; UDSIM_FORCE_WIDTH
/// overrides it when set. An unavailable or unknown request falls down the
/// ladder to the widest available width not above it (and up to 32 from
/// below), reported as DiagCode::WidthFallback into `diag`. The chosen
/// width is recorded in the `dispatch.width` gauge of `metrics`.
[[nodiscard]] WidthChoice dispatch_width(int requested = 0,
                                         Diagnostics* diag = nullptr,
                                         MetricsRegistry* metrics = nullptr);

/// The request make_simulator passes to dispatch_width for `kind`: an unset
/// width (0) becomes kWidthWidest for the lane-packed engines (PCSet,
/// ZeroDelayLcc), whose passes settle one vector per bit lane; every other
/// request, and every other engine, is returned unchanged (0 = 32 bits).
[[nodiscard]] constexpr int engine_width_request(EngineKind kind,
                                                 int requested) noexcept {
  const bool lane_packed =
      kind == EngineKind::PCSet || kind == EngineKind::ZeroDelayLcc;
  return requested == 0 && lane_packed ? kWidthWidest : requested;
}

}  // namespace udsim
