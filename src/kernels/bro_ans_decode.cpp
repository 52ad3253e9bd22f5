// BRO-ANS kernel selection and OpenMP-parallel slice drivers (the entropy
// format's counterpart of the dispatch half of bro_decode.cpp).
#include "kernels/bro_ans_decode.h"

#include "kernels/native_spmv.h"
#include "kernels/simd_kernels.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

void check_sym_len(int sym_len) {
  BRO_CHECK_MSG(sym_len == 32 || sym_len == 64,
                "unsupported symbol length: " + std::to_string(sym_len));
}

} // namespace

BroAnsKernel select_bro_ans_kernel(int sym_len, SimdIsa isa) {
  check_sym_len(sym_len);
  BroAnsKernel k;
  const IsaKernels* set = isa_kernels(isa);
  if (set != nullptr && sym_len == 32 && set->ans_spmv32 != nullptr) {
    k.spmv = set->ans_spmv32;
    k.isa = isa;
    return k;
  }
  k.spmv = sym_len == 32 ? &detail::bro_ans_slice_spmv<std::uint32_t>
                         : &detail::bro_ans_slice_spmv<std::uint64_t>;
  return k;
}

BroAnsKernel generic_bro_ans_kernel(int sym_len) {
  check_sym_len(sym_len);
  BroAnsKernel k;
  k.spmv = sym_len == 32 ? &detail::bro_ans_slice_spmv_single<std::uint32_t>
                         : &detail::bro_ans_slice_spmv_single<std::uint64_t>;
  return k;
}

std::vector<BroAnsKernel> plan_kernels(const core::BroAns& a, SimdIsa isa) {
  const BroAnsKernel k = select_bro_ans_kernel(a.options().sym_len, isa);
  return std::vector<BroAnsKernel>(a.slices().size(), k);
}

void native_spmv_bro_ans(const core::BroAns& a,
                         std::span<const BroAnsKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() >= static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() >= static_cast<std::size_t>(a.rows()));
  const auto& slices = a.slices();
  BRO_CHECK(kernels.size() == slices.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < slices.size(); ++si)
    kernels[si].spmv(a, slices[si], x, y);
}

void native_spmv_bro_ans_generic(const core::BroAns& a,
                                 std::span<const value_t> x,
                                 std::span<value_t> y) {
  const std::vector<BroAnsKernel> generic(
      a.slices().size(), generic_bro_ans_kernel(a.options().sym_len));
  native_spmv_bro_ans(a, generic, x, y);
}

} // namespace bro::kernels
