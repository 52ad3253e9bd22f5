// SSE4 kernel table (4 x u32 / 2 x u64 / 2 x f64 lanes — the portable
// x86-64 tier below AVX2). Compiled with -msse4.2 -ffp-contract=off when the
// toolchain supports it (see src/kernels/CMakeLists.txt); collapses to a
// stub exporting a null table otherwise, so non-x86 builds link unchanged.
#include "kernels/simd_kernels.h"

#if defined(__SSE4_2__)

#define BRO_SIMD_NS simd_sse4
#include "kernels/bro_ans_decode_simd_impl.h"
#include "kernels/bro_bcsr_decode_simd_impl.h"
#include "kernels/bro_decode_simd_impl.h"
#undef BRO_SIMD_NS

namespace bro::kernels::detail {
namespace {
constexpr IsaKernels kTable = [] {
  IsaKernels k;
  k.isa = SimdIsa::kSse4;
  simd_sse4::ell_coo::add_kernels(k);
  simd_sse4::ans::add_kernels(k);
  simd_sse4::bcsr::add_kernels(k);
  return k;
}();
} // namespace
const IsaKernels* const kIsaKernelsSse4 = &kTable;
} // namespace bro::kernels::detail

#else

namespace bro::kernels::detail {
const IsaKernels* const kIsaKernelsSse4 = nullptr;
} // namespace bro::kernels::detail

#endif
