#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <ostream>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::new_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request, std::uint64_t id) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void Tracer::write_tsv(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_)
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\n';
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {
thread_local std::vector<std::uint64_t> open_scopes;
} // namespace

Scope::Scope(const char* name, std::uint64_t request, std::int64_t start_ns)
    : name_(name), request_(request) {
  if (!tracer().enabled()) return;
  id_ = tracer().new_id();
  parent_ = open_scopes.empty() ? 0 : open_scopes.back();
  open_scopes.push_back(id_);
  start_ = start_ns != 0 ? start_ns : now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  open_scopes.pop_back();
  tracer().record(name_, start_, end, parent_, request_, id_);
}

std::int64_t self_ns(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& c : children) {
    const std::int64_t a = std::max(c.start_ns, span.start_ns);
    const std::int64_t b = std::min(c.end_ns, span.end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (span.end_ns - span.start_ns) - covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(s);
  static const std::vector<Span> none;
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    out.push_back(self_ns(s, it == children.end() ? none : it->second));
  }
  return out;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += double(self[i]) * 1e-9;
  return out;
}

double layer_coverage(const std::vector<Span>& spans, const char* root) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  const auto in_root = [&](const Span& s) {
    for (std::uint64_t p = s.parent; p != 0;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) return false;
      if (std::strcmp(it->second->name, root) == 0) return true;
      p = it->second->parent;
    }
    return false;
  };
  const std::vector<std::int64_t> self = self_times(spans);
  double wall = 0, layers = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.name, root) == 0)
      wall += double(s.end_ns - s.start_ns);
    else if (std::strncmp(s.name, "bench.", 6) != 0 && in_root(s))
      layers += double(self[i]);
  }
  return wall > 0 ? layers / wall : 0;
}

} // namespace perfbench
