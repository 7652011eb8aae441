// EngineKind: the simulation techniques this library implements, as one
// enum shared by the simulator facade, the compile-cost model, and the
// fallback policy. Lives in its own header so low-level layers (analysis)
// can name engines without pulling in the full simulator facade.
#pragma once

#include <string_view>

namespace udsim {

enum class EngineKind {
  Event2,               ///< interpreted event-driven, 2-valued (Fig. 19 col 2)
  Event3,               ///< interpreted event-driven, 3-valued (Fig. 19 col 1)
  PCSet,                ///< PC-set method (Fig. 19 col 3)
  Parallel,             ///< parallel technique, unoptimized (Fig. 19 col 4)
  ParallelTrimmed,      ///< + bit-field trimming (Fig. 20)
  ParallelPathTracing,  ///< + path-tracing shift elimination (Fig. 23)
  ParallelCycleBreaking,///< + cycle-breaking shift elimination (Fig. 23)
  ParallelCombined,     ///< path tracing + trimming (Fig. 24)
  ZeroDelayLcc,         ///< zero-delay compiled simulation (context exp.)
  Native,               ///< dlopen'd machine code over the combined program (§5h)
};

[[nodiscard]] std::string_view engine_name(EngineKind k) noexcept;

}  // namespace udsim
