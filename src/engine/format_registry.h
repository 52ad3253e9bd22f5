// bro::engine format registry — the single format-dispatch site.
//
// Every storage format the library knows (the paper's formats, their
// baselines and the extensions) registers one FormatTraits entry: its name,
// applicability predicate (the ELL-viability rule), build / reference-apply /
// native-kernel / simulator hooks and serialization. Everything that used to
// switch over core::Format — format_name, name parsing, Matrix::spmv,
// auto-selection, the autotuner's candidate enumeration, the CLI's --format
// handling and the bench harness — iterates this table instead. A new
// format still touches more than this table; DESIGN.md (Layer 1) lists the
// files.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/matrix.h"
#include "core/savings.h"
#include "gpusim/device.h"
#include "util/types.h"

namespace bro::engine {

class Workspace; // plan.h

/// What the simulator reports for one (format, device) tuning candidate:
/// modelled throughput plus the index space savings of the device-tuned
/// compressed object (0 for uncompressed formats).
struct TuneOutcome {
  double gflops = 0;
  double eta = 0;
};

/// One registry entry. Entries are written with designated initializers;
/// every field has a default (null hooks, false flags, never
/// auto-selected), so an entry names only what its format provides.
/// `format`, `name`, `applicable` and `apply` are required.
struct FormatTraits {
  core::Format format{};
  const char* name = nullptr; // the canonical display/CLI name ("BRO-ELL")
  bool compressed = false;    // BRO family: reports nonzero index savings
  bool extension = false;     // beyond the paper (gated by TuneOptions)
  bool tunable = false;       // in the autotuner's cocktail ranking
  int auto_priority = -1;     // auto_format(): lowest applicable wins;
                              // <0 = never

  /// Can this format hold the matrix without pathological expansion?
  /// (ELLPACK family: rows * max_row_length <= max_ell_expand * nnz.)
  bool (*applicable)(const sparse::Csr& csr, double max_ell_expand) = nullptr;

  /// One-time plan step: materialize the representation in the facade's
  /// cache and pre-size the workspace so execute() never allocates (null:
  /// nothing to build beyond the facade's base CSR).
  void (*build)(const core::Matrix& m, Workspace& ws) = nullptr;

  /// Sequential reference kernel — what Matrix::spmv dispatches to.
  void (*apply)(const core::Matrix& m, std::span<const value_t> x,
                std::span<value_t> y) = nullptr;

  /// OpenMP host kernel fed from the plan workspace (null: falls back to
  /// apply — e.g. the sequential BRO-CSR extension).
  void (*native)(const core::Matrix& m, Workspace& ws,
                 std::span<const value_t> x, std::span<value_t> y) = nullptr;

  /// Simulator run with device-matched compression options (null for
  /// formats excluded from the cocktail, e.g. the CSR host reference).
  TuneOutcome (*tune)(const sim::DeviceSpec& dev, const core::Matrix& m,
                      std::span<const value_t> x) = nullptr;

  /// Index space savings of the device-independent representation
  /// (null for uncompressed formats).
  core::Savings (*savings)(const core::Matrix& m) = nullptr;

  /// Write the compressed representation as a tagged .bro stream
  /// (null when the format has no on-disk form).
  void (*serialize)(std::ostream& out, const core::Matrix& m) = nullptr;

  /// Structural + lossless-against-source invariant check of the format's
  /// representation (bro::check validators): one message per violation,
  /// empty = valid. Builds the representation on first call.
  std::vector<std::string> (*validate)(const core::Matrix& m) = nullptr;

  /// Simulator-kernel numerical result for differential testing: runs the
  /// GPU-simulator kernel and returns its y vector (null when the format
  /// has no simulator kernel). Unlike tune(), the representation is the
  /// facade-cached one, so validate / apply / native / sim all exercise the
  /// same object.
  std::vector<value_t> (*sim_apply)(const sim::DeviceSpec& dev,
                                    const core::Matrix& m,
                                    std::span<const value_t> x) = nullptr;

  /// Multi-vector (SpMM) OpenMP host kernel over k interleaved right-hand
  /// sides (see kernels/native_spmm.h for the layout and the bitwise
  /// contract). Null: SpmvPlan::execute_multi falls back to k single-vector
  /// executes through gather/scatter scratch.
  void (*native_multi)(const core::Matrix& m, Workspace& ws,
                       std::span<const value_t> x, std::span<value_t> y,
                       int k) = nullptr;

  /// Bytes of the built format-specific representation beyond the facade's
  /// base CSR (null: the representation *is* that CSR, e.g. the CSR host
  /// reference). Builds the representation on first call. Feeds the serve
  /// layer's PlanCache byte budget via SpmvPlan::resident_bytes().
  std::size_t (*resident_bytes)(const core::Matrix& m) = nullptr;

  /// The same SpMV forced through the runtime-width (generic) decoder
  /// instead of the plan's width-specialized dispatch table (null for
  /// formats without bit-level decode). Decodes bit-for-bit identically, so
  /// the differential fuzz driver compares it against native() *bitwise* —
  /// the parity oracle for the specialized kernels.
  void (*native_generic)(const core::Matrix& m, std::span<const value_t> x,
                         std::span<value_t> y) = nullptr;

  /// True when a row partition of the matrix, re-compressed shard by shard,
  /// executes bitwise-identically to the whole-matrix plan (engine/shard.h).
  /// Holds for every format whose kernels accumulate each y row strictly
  /// left-to-right over that row's entries (CSR, COO, the ELLPACK family,
  /// HYB, BRO-ELL, BRO-CSR — padding terms only ever add ±0.0, which cannot
  /// change a sum that is never exactly -0.0). False for the interval-carry
  /// formats (BRO-COO, BRO-HYB): interval boundaries fall at fixed offsets
  /// of the *global* entry stream, so re-compressing a shard regroups a
  /// row's partial sums and floating-point addition is not associative.
  bool row_shardable = false;
};

/// The registered formats, in core::Format enumeration order.
const std::vector<FormatTraits>& format_registry();

/// Traits lookup by enum value.
const FormatTraits& traits(core::Format f);

/// Name -> traits lookup (exact match on the canonical name); null when the
/// name is not registered.
const FormatTraits* find_format(std::string_view name);

/// All registered canonical names, in registry order.
std::vector<std::string> format_names();

/// The facade's auto-selection heuristic over the registry: the applicable
/// format with the lowest non-negative auto_priority.
core::Format auto_select(const sparse::Csr& csr, double max_ell_expand);

} // namespace bro::engine
