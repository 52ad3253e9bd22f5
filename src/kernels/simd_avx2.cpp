// AVX2 kernel table (8 x u32 / 4 x u64 / 4 x f64 lanes, gathers). Compiled
// with -mavx2 -ffp-contract=off when the toolchain supports it (see
// src/kernels/CMakeLists.txt); collapses to a stub exporting a null table
// otherwise, so non-x86 builds link unchanged.
#include "kernels/simd_kernels.h"

#if defined(__AVX2__)

#define BRO_SIMD_NS simd_avx2
#include "kernels/bro_ans_decode_simd_impl.h"
#include "kernels/bro_bcsr_decode_simd_impl.h"
#include "kernels/bro_decode_simd_impl.h"
#undef BRO_SIMD_NS

namespace bro::kernels::detail {
namespace {
constexpr IsaKernels kTable = [] {
  IsaKernels k;
  k.isa = SimdIsa::kAvx2;
  simd_avx2::ell_coo::add_kernels(k);
  simd_avx2::ans::add_kernels(k);
  simd_avx2::bcsr::add_kernels(k);
  return k;
}();
} // namespace
const IsaKernels* const kIsaKernelsAvx2 = &kTable;
} // namespace bro::kernels::detail

#else

namespace bro::kernels::detail {
const IsaKernels* const kIsaKernelsAvx2 = nullptr;
} // namespace bro::kernels::detail

#endif
