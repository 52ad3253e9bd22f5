// Dispatch tables over the width-templated BRO decode kernels
// (bro_decode.h) and the per-slice / per-interval selection rules.
//
// ISA layering: the scalar tables below are always present and are what
// generic_bro_*_kernel exposes as the parity baseline. When the active ISA
// carries a compiled-in SIMD kernel table (simd_kernels.h), selection
// returns that table's runtime-width kernel instead — for specialized AND
// mixed-width slices alike, since the vector shift count is a register
// operand. The width field keeps its informational meaning (uniform width
// or -1) either way, so selection-rule tests and diagnostics are
// ISA-independent.
#include <array>
#include <utility>

#include "kernels/bro_decode.h"
#include "kernels/native_spmv.h"
#include "kernels/simd_kernels.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

using detail::kGenericWidth;

// One specialized entry per width 0..kMaxSpecializedDecodeWidth per symbol
// type, built at compile time from the templates in bro_decode.h.
template <typename SymT, std::size_t... Ws>
constexpr auto ell_table(std::index_sequence<Ws...>) {
  return std::array<BroEllKernel, sizeof...(Ws)>{
      BroEllKernel{static_cast<int>(Ws),
                   &detail::bro_ell_slice_spmv<SymT, static_cast<int>(Ws)>,
                   &detail::bro_ell_slice_spmm<SymT, static_cast<int>(Ws)>}...};
}

template <typename SymT, std::size_t... Ws>
constexpr auto coo_table(std::index_sequence<Ws...>) {
  return std::array<BroCooKernel, sizeof...(Ws)>{
      BroCooKernel{static_cast<int>(Ws),
                   &detail::bro_coo_interval_spmv<SymT, static_cast<int>(Ws)>,
                   &detail::bro_coo_interval_spmm<SymT,
                                                  static_cast<int>(Ws)>}...};
}

using Widths = std::make_index_sequence<kMaxSpecializedDecodeWidth + 1>;

constexpr auto kEll32 = ell_table<std::uint32_t>(Widths{});
constexpr auto kEll64 = ell_table<std::uint64_t>(Widths{});
constexpr auto kCoo32 = coo_table<std::uint32_t>(Widths{});
constexpr auto kCoo64 = coo_table<std::uint64_t>(Widths{});

constexpr BroEllKernel kEllGeneric32{
    kGenericWidth, &detail::bro_ell_slice_spmv<std::uint32_t, kGenericWidth>,
    &detail::bro_ell_slice_spmm<std::uint32_t, kGenericWidth>};
constexpr BroEllKernel kEllGeneric64{
    kGenericWidth, &detail::bro_ell_slice_spmv<std::uint64_t, kGenericWidth>,
    &detail::bro_ell_slice_spmm<std::uint64_t, kGenericWidth>};
constexpr BroCooKernel kCooGeneric32{
    kGenericWidth,
    &detail::bro_coo_interval_spmv<std::uint32_t, kGenericWidth>,
    &detail::bro_coo_interval_spmm<std::uint32_t, kGenericWidth>};
constexpr BroCooKernel kCooGeneric64{
    kGenericWidth,
    &detail::bro_coo_interval_spmv<std::uint64_t, kGenericWidth>,
    &detail::bro_coo_interval_spmm<std::uint64_t, kGenericWidth>};

void check_sym_len(int sym_len) {
  BRO_CHECK_MSG(sym_len == 32 || sym_len == 64,
                "sym_len must be 32 or 64, got " << sym_len);
}

/// The uniform width of a slice's bit allocation, or kGenericWidth when the
/// slice mixes widths (pre-BAR slices with ragged per-column maxima).
int uniform_width(const core::BroEllSlice& slice) {
  if (slice.num_col == 0) return 0; // nothing to decode: any width works
  const int b = slice.bit_alloc[0];
  for (std::size_t c = 1; c < slice.bit_alloc.size(); ++c)
    if (slice.bit_alloc[c] != b) return kGenericWidth;
  return b;
}

} // namespace

BroEllKernel generic_bro_ell_kernel(int sym_len) {
  check_sym_len(sym_len);
  return sym_len == 32 ? kEllGeneric32 : kEllGeneric64;
}

BroCooKernel generic_bro_coo_kernel(int sym_len) {
  check_sym_len(sym_len);
  return sym_len == 32 ? kCooGeneric32 : kCooGeneric64;
}

namespace {

BroEllKernel select_bro_ell_kernel(const core::BroEllSlice& slice,
                                   int sym_len, SimdIsa isa) {
  check_sym_len(sym_len);
  const int w = uniform_width(slice);
  if (isa != SimdIsa::kScalar) {
    if (const IsaKernels* set = isa_kernels(isa)) {
      BroEllKernel k;
      k.width = w >= 0 && w <= kMaxSpecializedDecodeWidth ? w : -1;
      k.spmv = sym_len == 32 ? set->ell_spmv32 : set->ell_spmv64;
      k.spmm = sym_len == 32 ? set->ell_spmm32 : set->ell_spmm64;
      k.isa = isa;
      return k;
    }
  }
  if (w < 0 || w > kMaxSpecializedDecodeWidth)
    return generic_bro_ell_kernel(sym_len);
  return sym_len == 32 ? kEll32[static_cast<std::size_t>(w)]
                       : kEll64[static_cast<std::size_t>(w)];
}

BroCooKernel select_bro_coo_kernel(const core::BroCooInterval& iv,
                                   int sym_len, SimdIsa isa) {
  check_sym_len(sym_len);
  if (isa != SimdIsa::kScalar) {
    if (const IsaKernels* set = isa_kernels(isa)) {
      BroCooKernel k;
      k.width =
          iv.bits >= 0 && iv.bits <= kMaxSpecializedDecodeWidth ? iv.bits
                                                                : -1;
      k.spmv = sym_len == 32 ? set->coo_spmv32 : set->coo_spmv64;
      k.spmm = sym_len == 32 ? set->coo_spmm32 : set->coo_spmm64;
      k.isa = isa;
      return k;
    }
  }
  if (iv.bits < 0 || iv.bits > kMaxSpecializedDecodeWidth)
    return generic_bro_coo_kernel(sym_len);
  return sym_len == 32 ? kCoo32[static_cast<std::size_t>(iv.bits)]
                       : kCoo64[static_cast<std::size_t>(iv.bits)];
}

} // namespace

std::vector<BroEllKernel> plan_kernels(const core::BroEll& a, SimdIsa isa) {
  std::vector<BroEllKernel> kernels;
  kernels.reserve(a.slices().size());
  for (const auto& slice : a.slices())
    kernels.push_back(select_bro_ell_kernel(slice, a.options().sym_len, isa));
  return kernels;
}

std::vector<BroCooKernel> plan_kernels(const core::BroCoo& a, SimdIsa isa) {
  std::vector<BroCooKernel> kernels;
  kernels.reserve(a.intervals().size());
  for (const auto& iv : a.intervals())
    kernels.push_back(select_bro_coo_kernel(iv, a.options().sym_len, isa));
  return kernels;
}

} // namespace bro::kernels
