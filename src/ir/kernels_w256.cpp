// 256-bit executor instantiations — u256 bit lanes and u32x8 word lanes —
// isolated in their own TU so the build can apply -mavx2 to exactly this
// file (src/CMakeLists.txt): the lane loops then compile to 256-bit vector
// instructions. When the flag was applied the library defines
// UDSIM_W256_AVX2 and runtime width dispatch (core/width_dispatch.h)
// refuses the 256-bit lane on CPUs without AVX2 (BatchRunner's word lanes
// ask the same question); without the flag the instantiations here are
// portable scalar code and the lane is available everywhere.
#include "ir/executor.h"

namespace udsim {

template void execute_switch<u256>(const Program&, std::span<const u256>,
                                   std::span<u256>);
template void execute<u256>(const Program&, std::span<const u256>,
                            std::span<u256>);
template void execute<u32x8>(const Program&, std::span<const u32x8>,
                             std::span<u32x8>);

}  // namespace udsim
