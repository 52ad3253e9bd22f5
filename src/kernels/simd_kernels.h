// The SIMD decode backend's link seam: one IsaKernels table per ISA,
// defined by the per-ISA translation units (simd_sse4.cpp / simd_avx2.cpp —
// the only TUs in the tree compiled with ISA target flags, each including
// every *_simd_impl.h) and consumed by the baseline-ABI dispatch code
// (bro_decode.cpp, bro_ans_decode.cpp, bro_bcsr_decode.cpp,
// cpu_features.cpp).
//
// The seam is deliberately data, not code: each per-ISA TU exports a
// constant-initialized pointer to its table (nullptr when the toolchain
// could not target the ISA and the TU collapsed to a stub), so probing
// availability never executes an instruction from an ISA-flagged TU on a
// host that may not support it.
#pragma once

#include <cstdint>

#include "kernels/bro_bcsr_decode.h"
#include "kernels/cpu_features.h"
#include "kernels/native_spmv.h"

namespace bro::kernels {

/// Decode-only lockstep checksum over a muxed symbol stream with per-column
/// bit widths (widths[c] bits for delta c, `cols` deltas per lane, `lanes`
/// lanes): the SIMD counterpart of detail::decode_lane_checksum, summed over
/// every lane. Used by the decode-throughput microbenchmark; the sum equals
/// the scalar decoders' checksum bit for bit.
template <typename SymT>
using SimdChecksumFn = std::uint64_t (*)(const SymT* stream,
                                         std::size_t lanes,
                                         const std::uint8_t* widths,
                                         std::size_t cols);

/// Everything one ISA contributes to dispatch. A null entry means dispatch
/// runs the scalar kernel for that case. Every kernel decodes the identical
/// delta sequence and keeps per-row FP accumulation in scalar program order,
/// so results are bitwise equal to the scalar kernels.
struct IsaKernels {
  SimdIsa isa = SimdIsa::kScalar;

  // BRO-ELL slices and BRO-COO intervals (bro_decode_simd_impl.h), both
  // symbol lengths. Runtime-width: the vector shift count is a register
  // operand, so one kernel covers every width 0..32, uniform or mixed. The
  // checksum passes are the decode-throughput bench's.
  decltype(BroEllKernel::spmv) ell_spmv32 = nullptr;
  decltype(BroEllKernel::spmv) ell_spmv64 = nullptr;
  decltype(BroEllKernel::spmm) ell_spmm32 = nullptr;
  decltype(BroEllKernel::spmm) ell_spmm64 = nullptr;
  decltype(BroCooKernel::spmv) coo_spmv32 = nullptr;
  decltype(BroCooKernel::spmv) coo_spmv64 = nullptr;
  decltype(BroCooKernel::spmm) coo_spmm32 = nullptr;
  decltype(BroCooKernel::spmm) coo_spmm64 = nullptr;
  SimdChecksumFn<std::uint32_t> checksum32 = nullptr;
  SimdChecksumFn<std::uint64_t> checksum64 = nullptr;

  // BRO-ANS slices over 32-bit stream symbols (bro_ans_decode_simd_impl.h;
  // AVX2 only — 64-bit symbols and ISAs without gathers run the scalar
  // 4-chain kernel), plus the decode-only pass entropy-bench times.
  decltype(BroAnsKernel::spmv) ans_spmv32 = nullptr;
  std::uint64_t (*ans_checksum32)(const core::BroAns& a,
                                  const core::BroAnsSlice& slice) = nullptr;

  // BRO-BCSR slices (bro_bcsr_decode_simd_impl.h), indexed by block shape
  // in kBcsrCandidateShapes order (0=2x2, 1=4x4, 2=8x1, 3=1x8) and symbol
  // length. SpMM stays on the scalar kernels for every ISA.
  decltype(BroBcsrKernel::spmv) bcsr_spmv32[4] = {};
  decltype(BroBcsrKernel::spmv) bcsr_spmv64[4] = {};
};

/// The kernel table compiled for `isa`, or nullptr when the binary does not
/// carry one (kScalar, or a toolchain that cannot target the ISA).
/// Link-time availability only — whether the host can execute the table is
/// cpu_features()'s side of the bargain, and active_simd_isa() combines the
/// two.
const IsaKernels* isa_kernels(SimdIsa isa);

namespace detail {
// Defined by the per-ISA TUs; read by isa_kernels(). Constant initialized,
// so safe to read from any static initializer.
extern const IsaKernels* const kIsaKernelsSse4;
extern const IsaKernels* const kIsaKernelsAvx2;
} // namespace detail

} // namespace bro::kernels
