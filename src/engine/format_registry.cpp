#include "engine/format_registry.h"

#include <algorithm>
#include <ostream>

#include "check/validate.h"
#include "core/serialize.h"
#include "engine/plan.h"
#include "kernels/native_spmm.h"
#include "kernels/native_spmv.h"
#include "kernels/sim_spmv.h"
#include "kernels/sim_spmv_ext.h"
#include "sparse/spmv.h"
#include "util/error.h"

namespace bro::engine {

namespace {

using core::Format;
using core::Matrix;
using sim::DeviceSpec;

bool always_applicable(const sparse::Csr&, double) { return true; }

bool nonzero_applicable(const sparse::Csr& csr, double) {
  return csr.nnz() > 0;
}

// The ELL-viability rule: padding to the longest row must not expand the
// non-zero count by more than max_ell_expand.
bool ell_applicable(const sparse::Csr& csr, double max_ell_expand) {
  return csr.nnz() > 0 &&
         static_cast<double>(csr.rows) *
                 static_cast<double>(csr.max_row_length()) <=
             max_ell_expand * static_cast<double>(csr.nnz());
}

core::Savings index_savings(std::size_t original, std::size_t compressed) {
  return core::make_savings(original, compressed);
}

const std::vector<FormatTraits>& build_registry() {
  static const std::vector<FormatTraits> registry = {
      {.format = Format::kCsr,
       .name = "CSR",
       // The host CSR reference is the correctness baseline, not a GPU
       // cocktail candidate (the CSR-scalar/vector simulator baselines live
       // in bench_baselines_csr).
       .auto_priority = 3,
       .applicable = always_applicable,
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) {
         sparse::spmv_csr_reference(m.csr(), x, y);
       },
       .native = [](const Matrix& m, Workspace&, std::span<const value_t> x,
                    std::span<value_t> y) {
         kernels::native_spmv_csr(m.csr(), x, y);
       },
       .validate = [](const Matrix& m) { return check::validate_csr(m.csr()); },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_csr_scalar(dev, m.csr(), x).y;
       },
       .native_multi = [](const Matrix& m, Workspace&,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) { kernels::native_spmm_csr(m.csr(), x, y, k); },
       .row_shardable = true},

      {.format = Format::kCoo,
       .name = "COO",
       .tunable = true,
       .applicable = always_applicable,
       .build = [](const Matrix& m, Workspace& ws) { ws.coo_ranges(m.coo()); },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) {
         std::fill(y.begin(), y.end(), value_t{0});
         sparse::spmv_coo_accumulate(m.coo(), x, y);
       },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         kernels::native_spmv_coo(m.coo(), ws.coo_ranges(m.coo()), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         return {kernels::sim_spmv_coo(dev, m.coo(), x).time.gflops, 0.0};
       },
       .validate = [](const Matrix& m) {
         return check::validate_coo(m.coo(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_coo(dev, m.coo(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         return m.coo().nnz() * (2 * sizeof(index_t) + sizeof(value_t));
       },
       .row_shardable = true},

      {.format = Format::kEll,
       .name = "ELLPACK",
       .tunable = true,
       .applicable = ell_applicable,
       .build = [](const Matrix& m, Workspace&) { m.ell(); },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { sparse::spmv_ell(m.ell(), x, y); },
       .native = [](const Matrix& m, Workspace&, std::span<const value_t> x,
                    std::span<value_t> y) {
         kernels::native_spmv_ell(m.ell(), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         return {kernels::sim_spmv_ell(dev, m.ell(), x).time.gflops, 0.0};
       },
       .validate = [](const Matrix& m) {
         return check::validate_ell(m.ell(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_ell(dev, m.ell(), x).y;
       },
       .native_multi = [](const Matrix& m, Workspace&,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) { kernels::native_spmm_ell(m.ell(), x, y, k); },
       .resident_bytes = [](const Matrix& m) {
         return m.ell().entries() * (sizeof(index_t) + sizeof(value_t));
       },
       .row_shardable = true},

      {.format = Format::kEllR,
       .name = "ELLPACK-R",
       .tunable = true,
       .applicable = ell_applicable,
       .build = [](const Matrix& m, Workspace&) { m.ellr(); },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { sparse::spmv_ellr(m.ellr(), x, y); },
       .native = [](const Matrix& m, Workspace&, std::span<const value_t> x,
                    std::span<value_t> y) {
         kernels::native_spmv_ellr(m.ellr(), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         return {kernels::sim_spmv_ellr(dev, m.ellr(), x).time.gflops, 0.0};
       },
       .validate = [](const Matrix& m) {
         return check::validate_ellr(m.ellr(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_ellr(dev, m.ellr(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         const auto& e = m.ellr();
         return e.ell.entries() * (sizeof(index_t) + sizeof(value_t)) +
                e.row_length.size() * sizeof(index_t);
       },
       .row_shardable = true},

      {.format = Format::kHyb,
       .name = "HYB",
       .tunable = true,
       .applicable = always_applicable,
       .build = [](const Matrix& m, Workspace& ws) {
         ws.coo_ranges(m.hyb().coo);
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { sparse::spmv_hyb(m.hyb(), x, y); },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         kernels::native_spmv_hyb(m.hyb(), ws.coo_ranges(m.hyb().coo), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         return {kernels::sim_spmv_hyb(dev, m.hyb(), x).time.gflops, 0.0};
       },
       .validate = [](const Matrix& m) {
         return check::validate_hyb(m.hyb(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_hyb(dev, m.hyb(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         const auto& h = m.hyb();
         return h.ell.entries() * (sizeof(index_t) + sizeof(value_t)) +
                h.coo.nnz() * (2 * sizeof(index_t) + sizeof(value_t));
       },
       .row_shardable = true},

      {.format = Format::kBroEll,
       .name = "BRO-ELL",
       .compressed = true,
       .tunable = true,
       .auto_priority = 1,
       .applicable = ell_applicable,
       .build = [](const Matrix& m, Workspace& ws) {
         ws.kernel_table(m.bro_ell());
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { m.bro_ell().spmv(x, y); },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         const auto& bro = m.bro_ell();
         kernels::native_spmv_bro_ell(bro, ws.kernel_table(bro), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         const auto& bro = m.bro_ell();
         return {kernels::sim_spmv_bro_ell(dev, bro, x).time.gflops,
                 index_savings(bro.original_index_bytes(),
                               bro.compressed_index_bytes())
                     .eta()};
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_ell().original_index_bytes(),
                              m.bro_ell().compressed_index_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_ell(out, m.bro_ell());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_ell(m.bro_ell(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_bro_ell(dev, m.bro_ell(), x).y;
       },
       .native_multi = [](const Matrix& m, Workspace& ws,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) {
         const auto& bro = m.bro_ell();
         kernels::native_spmm_bro_ell(bro, ws.kernel_table(bro), x, y, k);
       },
       .resident_bytes = [](const Matrix& m) {
         return m.bro_ell().resident_index_bytes() +
                m.bro_ell().vals().size() * sizeof(value_t);
       },
       .native_generic = [](const Matrix& m, std::span<const value_t> x,
                            std::span<value_t> y) {
         kernels::native_spmv_bro_ell_generic(m.bro_ell(), x, y);
       },
       .row_shardable = true},

      {.format = Format::kBroCoo,
       .name = "BRO-COO",
       .compressed = true,
       .tunable = true,
       .applicable = always_applicable,
       .build = [](const Matrix& m, Workspace& ws) {
         ws.carries(m.bro_coo().intervals().size());
         ws.kernel_table(m.bro_coo());
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) {
         std::fill(y.begin(), y.end(), value_t{0});
         m.bro_coo().spmv_accumulate(x, y);
       },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         const auto& bro = m.bro_coo();
         kernels::native_spmv_bro_coo(bro, ws.kernel_table(bro), x, y,
                                      ws.carries(bro.intervals().size()));
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         // Device-matched interval sizing (the COO kernel's launch rule).
         const auto bro = core::BroCoo::compress(
             m.coo(), kernels::bro_coo_options_for(m.nnz(), dev));
         return {kernels::sim_spmv_bro_coo(dev, bro, x).time.gflops,
                 index_savings(bro.original_row_bytes(),
                               bro.compressed_row_bytes())
                     .eta()};
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_coo().original_row_bytes(),
                              m.bro_coo().compressed_row_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_coo(out, m.bro_coo());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_coo(m.bro_coo(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         // The facade-cached object (not the device-retuned one tune() uses)
         // so the differential run covers what apply/native ran.
         return kernels::sim_spmv_bro_coo(dev, m.bro_coo(), x).y;
       },
       .native_multi = [](const Matrix& m, Workspace& ws,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) {
         const auto& bro = m.bro_coo();
         const std::size_t n = bro.intervals().size();
         kernels::native_spmm_bro_coo(
             bro, ws.kernel_table(bro), x, y, k, ws.carries(n),
             ws.carry_sums(n * 2 * static_cast<std::size_t>(k)));
       },
       .resident_bytes = [](const Matrix& m) {
         return m.bro_coo().resident_row_bytes() +
                m.bro_coo().padded_nnz() *
                    (sizeof(index_t) + sizeof(value_t));
       },
       .native_generic = [](const Matrix& m, std::span<const value_t> x,
                            std::span<value_t> y) {
         kernels::native_spmv_bro_coo_generic(m.bro_coo(), x, y);
       },
       // Interval carries regroup a row's partial sums at global stream
       // offsets; a shard's re-compression regroups them differently.
       .row_shardable = false},

      {.format = Format::kBroHyb,
       .name = "BRO-HYB",
       .compressed = true,
       .tunable = true,
       .auto_priority = 2,
       .applicable = nonzero_applicable,
       .build = [](const Matrix& m, Workspace& ws) {
         const auto& bro = m.bro_hyb();
         ws.kernel_table(bro.ell_part());
         if (bro.coo_part().nnz() > 0) {
           ws.values(static_cast<std::size_t>(bro.rows()));
           ws.carries(bro.coo_part().intervals().size());
           ws.kernel_table(bro.coo_part());
         }
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { m.bro_hyb().spmv(x, y); },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         const auto& bro = m.bro_hyb();
         kernels::native_spmv_bro_hyb(
             bro, ws.kernel_table(bro.ell_part()),
             ws.kernel_table(bro.coo_part()), x, y, ws.values(y.size()),
             ws.carries(bro.coo_part().intervals().size()));
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         // Identical partition to HYB (paper §4.2.3) with device-matched
         // BRO-COO intervals for the overflow part.
         const auto& hyb = m.hyb();
         core::BroHybOptions ho;
         ho.width_override = hyb.ell.width;
         ho.coo = kernels::bro_coo_options_for(hyb.coo.nnz(), dev);
         const auto bro = core::BroHyb::compress(m.csr(), ho);
         return {kernels::sim_spmv_bro_hyb(dev, bro, x).time.gflops,
                 index_savings(bro.original_index_bytes(),
                               bro.compressed_index_bytes())
                     .eta()};
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_hyb().original_index_bytes(),
                              m.bro_hyb().compressed_index_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_hyb(out, m.bro_hyb());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_hyb(m.bro_hyb(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_bro_hyb(dev, m.bro_hyb(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         const auto& bro = m.bro_hyb();
         return bro.resident_index_bytes() +
                bro.ell_part().vals().size() * sizeof(value_t) +
                bro.coo_part().padded_nnz() * sizeof(value_t);
       },
       .native_generic = [](const Matrix& m, std::span<const value_t> x,
                            std::span<value_t> y) {
         kernels::native_spmv_bro_hyb_generic(m.bro_hyb(), x, y);
       },
       // The ELL/COO split point (width rule) shifts per shard and the COO
       // part inherits BRO-COO's interval regrouping.
       .row_shardable = false},

      {.format = Format::kBroCsr,
       .name = "BRO-CSR",
       .compressed = true,
       .extension = true,
       .tunable = true,
       .applicable = always_applicable,
       .build = [](const Matrix& m, Workspace&) { m.bro_csr(); },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { m.bro_csr().spmv(x, y); },
       // No `native`: there is no OpenMP host kernel yet, so the plan falls
       // back to the sequential warp-scan decode.
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         const auto& bro = m.bro_csr();
         return {kernels::sim_spmv_bro_csr(dev, bro, x).time.gflops,
                 index_savings(bro.original_index_bytes(),
                               bro.compressed_index_bytes())
                     .eta()};
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_csr().original_index_bytes(),
                              m.bro_csr().compressed_index_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_csr(out, m.bro_csr());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_csr(m.bro_csr(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_bro_csr(dev, m.bro_csr(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         const auto& bro = m.bro_csr();
         return bro.compressed_index_bytes() +
                bro.row_ptr().size() * sizeof(index_t) +
                bro.vals().size() * sizeof(value_t);
       },
       .row_shardable = true},

      {.format = Format::kBroAns,
       .name = "BRO-ANS",
       .compressed = true,
       .extension = true,
       // Not tunable and never auto-selected: the symbol model adapts to
       // the matrix by construction (the frequency table is rebuilt per
       // matrix), leaving no device-dependent knob for the cocktail to
       // sweep.
       .applicable = ell_applicable,
       .build = [](const Matrix& m, Workspace& ws) {
         ws.kernel_table(m.bro_ans());
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { m.bro_ans().spmv(x, y); },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         const auto& bro = m.bro_ans();
         kernels::native_spmv_bro_ans(bro, ws.kernel_table(bro), x, y);
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_ans().original_index_bytes(),
                              m.bro_ans().compressed_index_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_ans(out, m.bro_ans());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_ans(m.bro_ans(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_bro_ans(dev, m.bro_ans(), x).y;
       },
       .resident_bytes = [](const Matrix& m) {
         return m.bro_ans().resident_index_bytes() +
                m.bro_ans().vals().size() * sizeof(value_t);
       },
       .native_generic = [](const Matrix& m, std::span<const value_t> x,
                            std::span<value_t> y) {
         kernels::native_spmv_bro_ans_generic(m.bro_ans(), x, y);
       },
       // Entropy coding is per-row-slice with a per-matrix table; a shard
       // rebuild re-derives its own table, but decode stays lossless and
       // accumulation left-to-right, so sharded results are bitwise equal.
       .row_shardable = true},

      {.format = Format::kBroBcsr,
       .name = "BRO-BCSR",
       .compressed = true,
       .extension = true,
       .tunable = true,
       // First pick when its strict applicability gate (block cover with
       // enough fill AND a real byte win over the unblocked streams —
       // core/bro_bcsr.cpp) passes: on matrices that block well it beats
       // BRO-ELL on both eta and decode rate, and the gate keeps it off
       // everything else (notably all of Test Set 1).
       .auto_priority = 0,
       .applicable = [](const sparse::Csr& csr, double max_ell_expand) {
         return core::bro_bcsr_applicable(csr, max_ell_expand);
       },
       .build = [](const Matrix& m, Workspace& ws) {
         ws.kernel_table(m.bro_bcsr());
       },
       .apply = [](const Matrix& m, std::span<const value_t> x,
                   std::span<value_t> y) { m.bro_bcsr().spmv(x, y); },
       .native = [](const Matrix& m, Workspace& ws,
                    std::span<const value_t> x, std::span<value_t> y) {
         const auto& bro = m.bro_bcsr();
         kernels::native_spmv_bro_bcsr(bro, ws.kernel_table(bro), x, y);
       },
       .tune = [](const DeviceSpec& dev, const Matrix& m,
                  std::span<const value_t> x) -> TuneOutcome {
         const auto& bro = m.bro_bcsr();
         // eta is fill-adjusted: compressed_index_bytes charges the cover's
         // explicit-zero value slots against the index-bit savings.
         return {kernels::sim_spmv_bro_bcsr(dev, bro, x).time.gflops,
                 index_savings(bro.original_index_bytes(),
                               bro.compressed_index_bytes())
                     .eta()};
       },
       .savings = [](const Matrix& m) {
         return index_savings(m.bro_bcsr().original_index_bytes(),
                              m.bro_bcsr().compressed_index_bytes());
       },
       .serialize = [](std::ostream& out, const Matrix& m) {
         core::write_bro_bcsr(out, m.bro_bcsr());
       },
       .validate = [](const Matrix& m) {
         return check::validate_bro_bcsr(m.bro_bcsr(), &m.csr());
       },
       .sim_apply = [](const DeviceSpec& dev, const Matrix& m,
                       std::span<const value_t> x) {
         return kernels::sim_spmv_bro_bcsr(dev, m.bro_bcsr(), x).y;
       },
       .native_multi = [](const Matrix& m, Workspace& ws,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) {
         const auto& bro = m.bro_bcsr();
         kernels::native_spmm_bro_bcsr(bro, ws.kernel_table(bro), x, y, k);
       },
       .resident_bytes = [](const Matrix& m) {
         return m.bro_bcsr().resident_index_bytes() +
                m.bro_bcsr().vals().size() * sizeof(value_t);
       },
       .native_generic = [](const Matrix& m, std::span<const value_t> x,
                            std::span<value_t> y) {
         kernels::native_spmv_bro_bcsr_generic(m.bro_bcsr(), x, y);
       },
       // Per-row accumulation is the 8-lane contract in ascending column
       // order; a shard's re-blocked cover only changes which exact-zero
       // fill products appear, and those never alter a lane (the reduce's
       // trailing +0.0 also normalizes the -0.0 edge), so sharded results
       // stay bitwise equal.
       .row_shardable = true},
  };
  return registry;
}

} // namespace

const std::vector<FormatTraits>& format_registry() { return build_registry(); }

const FormatTraits& traits(core::Format f) {
  const auto& registry = format_registry();
  const auto idx = static_cast<std::size_t>(f);
  BRO_CHECK_MSG(idx < registry.size() && registry[idx].format == f,
                "format not registered");
  return registry[idx];
}

const FormatTraits* find_format(std::string_view name) {
  for (const auto& t : format_registry())
    if (name == t.name) return &t;
  return nullptr;
}

std::vector<std::string> format_names() {
  std::vector<std::string> names;
  for (const auto& t : format_registry()) names.emplace_back(t.name);
  return names;
}

core::Format auto_select(const sparse::Csr& csr, double max_ell_expand) {
  const FormatTraits* best = nullptr;
  for (const auto& t : format_registry()) {
    if (t.auto_priority < 0 || !t.applicable(csr, max_ell_expand)) continue;
    if (!best || t.auto_priority < best->auto_priority) best = &t;
  }
  BRO_CHECK_MSG(best != nullptr, "no applicable format registered");
  return best->format;
}

} // namespace bro::engine
