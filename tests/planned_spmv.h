// Test helper: one native SpMV through freshly planned dispatch tables — the
// kernel tables kernels::plan_kernels selects at the active SIMD ISA (so a
// live ScopedSimdIsa is honored) and the COO row-range split at the current
// OpenMP thread count. The same entry points SpmvPlan drives, minus its
// Workspace cache, for tests that exercise a kernel on a bare
// representation.
#pragma once

#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/bro_ans.h"
#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "kernels/cpu_features.h"
#include "kernels/native_spmv.h"
#include "sparse/coo.h"
#include "sparse/hyb.h"

namespace bro::testing {

inline int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

inline void planned_spmv(const sparse::Coo& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  kernels::native_spmv_coo(a, kernels::coo_thread_ranges(a, omp_threads()), x,
                           y);
}

inline void planned_spmv(const sparse::Hyb& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  kernels::native_spmv_hyb(
      a, kernels::coo_thread_ranges(a.coo, omp_threads()), x, y);
}

inline void planned_spmv(const core::BroEll& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  kernels::native_spmv_bro_ell(
      a, kernels::plan_kernels(a, kernels::active_simd_isa()), x, y);
}

inline void planned_spmv(const core::BroAns& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  kernels::native_spmv_bro_ans(
      a, kernels::plan_kernels(a, kernels::active_simd_isa()), x, y);
}

inline void planned_spmv(const core::BroCoo& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  std::vector<kernels::BroCooCarry> carries(a.intervals().size());
  kernels::native_spmv_bro_coo(
      a, kernels::plan_kernels(a, kernels::active_simd_isa()), x, y, carries);
}

inline void planned_spmv(const core::BroHyb& a, std::span<const value_t> x,
                         std::span<value_t> y) {
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  std::vector<value_t> y_coo(y.size());
  std::vector<kernels::BroCooCarry> carries(
      a.coo_part().intervals().size());
  kernels::native_spmv_bro_hyb(a, kernels::plan_kernels(a.ell_part(), isa),
                               kernels::plan_kernels(a.coo_part(), isa), x, y,
                               y_coo, carries);
}

} // namespace bro::testing
