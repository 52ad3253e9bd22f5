// bro::engine planned SpMV execution.
//
// The paper's deployment model (and SMASH/clSpMV's architecture) is a
// one-time planning/indexing step feeding a cheap repeated-apply step:
// compress once, then decode every CG/GMRES iteration. SpmvPlan is that
// split made explicit. Building a plan materializes the chosen format and
// pre-sizes every scratch buffer the native kernels need (the BRO-HYB y_coo
// vector, the BRO-COO carry array, the COO per-thread row-range split);
// execute() is then allocation-free, which an instrumented workspace
// counter makes testable.
//
//   auto m = std::make_shared<core::Matrix>(core::Matrix::from_file(path));
//   engine::SpmvPlan plan(m);            // auto-selected format
//   plan.execute(x, y);                  // y = A*x, no per-call allocation
//
// Concurrency contract: a plan's Workspace is single-writer scratch. One
// SpmvPlan (and hence its Workspace) must NOT be shared across threads that
// execute concurrently — the kernels parallelize internally with OpenMP, so
// there is nothing to gain and a silent data race to lose. Concurrent
// callers need one plan each (cheap: representations are shared through the
// facade) or an external lock; bro::serve::PlanCache + SpmvServer implement
// the locked variant. Misuse fails loudly: execute()/execute_multi() guard
// entry with an atomic in-use flag and throw via BRO_CHECK instead of
// racing.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "engine/format_registry.h"
#include "kernels/bro_bcsr_decode.h"
#include "kernels/native_spmv.h"
#include "solver/operator.h"

namespace bro::engine {

/// One representation's plan-time kernel table (kernels::plan_kernels),
/// cached and keyed on the object's address, its slice/interval count and
/// the SIMD ISA it was selected at — so a different object at the same
/// address, or a ScopedSimdIsa/BRO_SIMD change, re-selects instead of
/// reusing stale kernels.
template <typename Rep, typename Kernel>
class KernelCache {
 public:
  /// The table for `a` at `isa`; counts a re-selection in `allocations`.
  std::span<const Kernel> get(const Rep& a, kernels::SimdIsa isa,
                              std::size_t& allocations) {
    if (for_ != &a || table_.size() != slots(a) || isa_ != isa) {
      table_ = kernels::plan_kernels(a, isa);
      for_ = &a;
      isa_ = isa;
      ++allocations;
    }
    return table_;
  }

 private:
  static std::size_t slots(const Rep& a) {
    if constexpr (requires { a.intervals(); })
      return a.intervals().size();
    else
      return a.slices().size();
  }

  std::vector<Kernel> table_;
  const Rep* for_ = nullptr;
  kernels::SimdIsa isa_ = kernels::SimdIsa::kScalar;
};

/// The kernel type kernels::plan_kernels selects for representation Rep.
template <typename Rep>
using KernelFor = typename decltype(kernels::plan_kernels(
    std::declval<const Rep&>(), kernels::SimdIsa{}))::value_type;

/// Pre-sized scratch owned by a plan. Each accessor grows its buffer only
/// when the request exceeds the current size and counts every growth, so a
/// test can assert that repeated execute() calls allocate nothing.
/// Not thread-safe: see the SpmvPlan concurrency contract above.
class Workspace {
 public:
  /// Scratch vector of n values (BRO-HYB's y_coo).
  std::span<value_t> values(std::size_t n);

  /// BRO-COO carry scratch for n intervals.
  std::span<kernels::BroCooCarry> carries(std::size_t n);

  /// BRO-COO SpMM carry sums: n = intervals * 2 * k values (see
  /// kernels/native_spmm.h for the layout).
  std::span<value_t> carry_sums(std::size_t n);

  /// Gather/scatter scratch for the multi-vector fallback path: one
  /// contiguous x column and one y column.
  std::span<value_t> gather_x(std::size_t n);
  std::span<value_t> gather_y(std::size_t n);

  /// The COO row-range split for this matrix at the plan's thread count,
  /// computed on first request and cached. The cache is keyed on the matrix
  /// address, its nnz and the current thread count, so a different matrix
  /// reallocated at the same address or an omp_set_num_threads() change
  /// recomputes the split instead of silently reusing stale ranges.
  std::span<const kernels::CooRange> coo_ranges(const sparse::Coo& a);

  /// The per-slice / per-interval decode-kernel table for a BRO
  /// representation (BroEll, BroCoo, BroAns or BroBcsr) at the active SIMD
  /// ISA, selected on first request and cached (see KernelCache). The
  /// build hooks populate these so execute()/execute_multi() dispatch
  /// through pre-selected kernels with no per-call selection scan or
  /// allocation.
  template <typename Rep>
  std::span<const KernelFor<Rep>> kernel_table(const Rep& a) {
    return std::get<KernelCache<Rep, KernelFor<Rep>>>(kernel_caches_)
        .get(a, kernels::active_simd_isa(), allocations_);
  }

  /// Number of (re)allocations performed so far.
  std::size_t allocations() const { return allocations_; }

 private:
  std::vector<value_t> values_;
  std::vector<kernels::BroCooCarry> carries_;
  std::vector<value_t> carry_sums_;
  std::vector<value_t> gather_x_;
  std::vector<value_t> gather_y_;
  std::vector<kernels::CooRange> ranges_;
  const sparse::Coo* ranges_for_ = nullptr;
  std::size_t ranges_nnz_ = 0;
  int ranges_threads_ = 0;
  template <typename... Reps>
  using KernelCaches = std::tuple<KernelCache<Reps, KernelFor<Reps>>...>;
  KernelCaches<core::BroEll, core::BroCoo, core::BroAns, core::BroBcsr>
      kernel_caches_;
  std::size_t allocations_ = 0;
};

/// A matrix bound to one format with everything needed to apply y = A*x
/// repeatedly: the built representation (shared with the facade's cache)
/// plus a pre-sized workspace. Built once per (matrix, format, thread
/// count); execute() performs no per-call heap allocation.
///
/// Plans are movable but not copyable, and must not execute concurrently
/// from two threads (see the file-header contract).
class SpmvPlan {
 public:
  explicit SpmvPlan(std::shared_ptr<const core::Matrix> matrix,
                    std::optional<core::Format> format = std::nullopt);

  SpmvPlan(SpmvPlan&& other) noexcept;
  SpmvPlan& operator=(SpmvPlan&& other) noexcept;
  SpmvPlan(const SpmvPlan&) = delete;
  SpmvPlan& operator=(const SpmvPlan&) = delete;

  core::Format format() const { return traits_->format; }
  const FormatTraits& format_traits() const { return *traits_; }
  const core::Matrix& matrix() const { return *matrix_; }
  index_t rows() const { return matrix_->rows(); }
  index_t cols() const { return matrix_->cols(); }

  /// y = A * x through the plan's native kernel (or the sequential
  /// reference for formats without one). Allocation-free after build.
  void execute(std::span<const value_t> x, std::span<value_t> y);

  /// Y = A * X for k interleaved right-hand sides (X[c*k + j] is element c
  /// of vector j; see kernels/native_spmm.h). Formats with an SpMM kernel
  /// (CSR, ELLPACK, BRO-ELL, BRO-COO) decode each index once per batch;
  /// the rest fall back to k single-vector executes through gather/scatter
  /// scratch. Column j of Y is bitwise-identical to execute() on column j
  /// of X either way.
  void execute_multi(std::span<const value_t> x, std::span<value_t> y, int k);

  /// Workspace growth counter — stable across execute() calls once built.
  std::size_t workspace_allocations() const { return ws_.allocations(); }

  /// Estimated resident bytes of this plan: the facade's base CSR plus the
  /// built representation (registry resident_bytes hook). What the serve
  /// layer's PlanCache charges against its byte budget.
  std::size_t resident_bytes() const;

  /// Test seam for the concurrency contract: acquire/release exactly the
  /// in-use guard execute() takes, so a test can prove that concurrent
  /// entry throws instead of racing.
  void debug_acquire();
  void debug_release();

 private:
  void execute_impl(std::span<const value_t> x, std::span<value_t> y);

  std::shared_ptr<const core::Matrix> matrix_;
  const FormatTraits* traits_;
  Workspace ws_;
  std::atomic<bool> in_use_{false};
};

/// Convenience: take ownership of a facade and plan it in one step.
SpmvPlan make_plan(core::Matrix matrix,
                   std::optional<core::Format> format = std::nullopt);
std::shared_ptr<SpmvPlan> make_shared_plan(
    core::Matrix matrix, std::optional<core::Format> format = std::nullopt);

/// Wrap a plan as a solver::Operator so CG/BiCGSTAB/GMRES iterate through
/// the planned, allocation-free apply path.
solver::Operator plan_operator(std::shared_ptr<SpmvPlan> plan);

} // namespace bro::engine
