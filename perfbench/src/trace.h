// In-memory spans around the benchmark's calls into each layer.
//
// A span has a name, start, end, the span that caused it and the request it
// belongs to. Spans are kept in memory while the run measures and written
// out when it ends. A span's self time is its duration minus the part of
// its interval that its child spans cover, so the self times along one
// blocking path add up to that path's wall time.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe span store. Recording is a no-op while disabled, so the
/// untraced run pays one branch per instrumented call.
class Tracer {
 public:
  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh span id (never 0); lets a caller name a parent before the
  /// parent's own end is known.
  std::uint64_t new_id();

  /// Store a finished span; returns its id (`id` when given, else fresh).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  std::vector<Span> spans() const;
  void clear();

  /// One tab-separated line per span: id, parent, request, name, start and
  /// end (ns relative to the earliest span).
  void write_tsv(std::ostream& out) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_; // guarded by mu_
  std::uint64_t next_id_ = 1; // guarded by mu_
};

/// The process-wide tracer the benchmark records into.
Tracer& tracer();

/// Records a span over its own lifetime, parented to the innermost open
/// Scope on the same thread. `start_ns` backdates the start (an open-loop
/// request starts at its due time); 0 means now.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0,
                 std::int64_t start_ns = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id, for children recorded explicitly; 0 while disabled.
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::int64_t start_ = 0;
};

/// Duration minus the union of the children's intervals clipped to the
/// span, in ns. `children` may overlap one another and the span's edges.
std::int64_t self_ns(const Span& span, const std::vector<Span>& children);

/// Self time of every span, in span order.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Total self seconds per span name.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans);

/// Share of the wall time of the spans named `root` that layer spans account
/// for: the self times of their descendants whose names do not start with
/// "bench." (the benchmark's own work: generator lag, collecting and
/// verifying answers), over the roots' summed durations. The roots' own self
/// time and bench.* self time count as unattributed, so the share falls when
/// the benchmark, not the layers, holds up the blocking path. 0 when no span
/// is named `root`.
double layer_coverage(const std::vector<Span>& spans, const char* root);

} // namespace perfbench
