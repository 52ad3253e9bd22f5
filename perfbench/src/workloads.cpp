#include "workloads.h"

#include <omp.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/matrix.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "schedule.h"
#include "serve/server.h"
#include "solver/cg.h"
#include "sparse/csr.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using bro::value_t;
using Vec = std::vector<value_t>;
namespace core = bro::core;
namespace engine = bro::engine;
namespace net = bro::net;
namespace serve = bro::serve;
namespace solver = bro::solver;
namespace sparse = bro::sparse;

// ---------------------------------------------------------------------------
// Fixed parameters. Everything a run measures follows from these and the
// seed; nothing is derived from a measurement.

constexpr double kSuiteScale = 0.05;  // suite stand-ins, linear size factor
constexpr int kSolveGrid = 192;       // solve: 192^2 Poisson, 36,864 rows
constexpr int kServedSolveGrid = 32;  // CG through serve / wire: 32^2
constexpr double kSolveTol = 1e-8;    // CG relative residual target
// ||x - x_true|| / ||x_true|| <= cond(A) * ||r|| / ||b||; cond(A) of the
// 192^2 Poisson matrix is about 1.5e4, so 1e-3 bounds a correct solve.
constexpr double kSolveErrTol = 1e-3;
// About 4x the iterations the 192^2 grid needs (445; 93 for 32^2). A solve
// that has not converged by then fails its check, and a wrong kernel's run
// ends in seconds instead of minutes.
constexpr int kMaxCgIterations = 2000;
// Local answers against spmv_csr_reference: max |y - y_ref| <= 1e-10 *
// max(1, max |y_ref|). Values are O(1), rows are short: rounding differences
// between kernels stay near 1e-15.
constexpr double kSpmvTol = 1e-10;
constexpr int kPool = 4;     // right-hand sides per matrix
constexpr int kSolveRhs = 4; // seeded (x_true, b) pairs
constexpr int kSetups = 7; // set-up processes per run; setup_s is their median
constexpr int kMinWrites = 10; // closed-loop writes per round, at least
constexpr int kRounds = 3;   // solve, read and write phases alternate this often
constexpr int kLadderProbes = 9; // expected trials per ladder search
// wire-churn writes. One write (UPLOAD_MATRIX, then the first SUBMIT on the
// new matrix, which builds its plan) held the one dispatch thread for about
// 10 ms (write_p50_ms 9.6-11.6 ms on a 4-vCPU AVX2 VM), so 16 writes a
// second keep it about 16% busy with plan builds: every read risks landing
// behind one, and reads still get most of the thread.
constexpr double kChurnWriteRate = 16;
// An upload removes the one kChurnLive before: the resident set stays the
// read set plus four uploads, so memory is flat over the run and every
// upload's first read misses the PlanCache.
constexpr int kChurnLive = 4;
constexpr std::size_t kMinProbeSamples = 1000; // ten beyond a probe's p99
constexpr double kSweepSeconds = 0.03; // per (matrix, format) kernel timing
constexpr double kRttShare = 0.15; // traced wire-churn: reads per path, of --seconds
constexpr int kMaxBatch = 8;
constexpr std::int64_t kLeadNs = 2'000'000; // first arrival 2 ms after start
// Local reads between CPU moves: at 100/s a read phase of a round then
// visits every CPU several times; the first read after a move runs cold.
constexpr std::size_t kRequestsPerCpu = 25;
// Requests outstanding in the closed-loop phase: four full batches
// (kMaxBatch), so each of at most two dispatch threads always has a full
// batch ready.
constexpr std::size_t kBurstWindow = 32;

struct Spec {
  const char* name;
  double ref_rate;     // reads per second in the reference-rate phase
  double p99_limit_ms; // max_rps pass limit
  Ladder ladder;
  // Shares of --seconds for the solve, reference-rate, closed-loop read,
  // write and ladder phases.
  double solve_share, read_share, burst_share, write_share, ladder_share;
};

// Why these workloads: solve is kernel-bound with no serve or net layer;
// serve-hot is read-only serving of a cached working set (batching and the
// SpMM kernels, zero plan builds); wire-churn puts the wire protocol and
// plan builds from concurrent uploads on the request path. Ladders span
// about 200x so that a large gain still lands on a rung.
//
// Each reference rate sits on the flat part of its latency curve, measured
// on a 4-vCPU AVX2 VM (two runs per rate, --seconds 12) against the
// max_rps the same runs found:
// - solve: 100/s, about 4% of max_rps (2500-2900/s). The 0.3 ms apply is
//   idle 97% of the time; at higher rates a descheduled CPU stalls the
//   requests queued behind it for milliseconds and the p99 spread over
//   seeds was 0.34 to 1.2. Its ~500 samples a run put the tail at p90.
//   Its p99 limit is 50 ms, about 150 applies: with 20 ms a stall of a few
//   milliseconds failed trials at 60% of capacity, and max_rps spread 0.25
//   over ten seeds (1394-2503/s).
// - serve-hot: 150/s, about 4% of max_rps (3900-5000/s). Each batch
//   re-selects its matrix's format (3.1 ms mean over the read set, 6.8 ms
//   on scircuit, against 0.01-0.8 ms kernels), and at low rates nearly
//   every request is its own batch: p50 3.1-3.8 ms and p90 7.8-9.3 ms at
//   50, 100 and 200/s, p50 3.8-3.9 ms and p99 14 ms at 400/s, where the two
//   dispatch threads are 60% busy. Capacity is far higher because batches
//   fill up under load.
// - wire-churn: 250/s, about 4% of max_rps (6300-6900/s at --seconds 35).
//   p99 was 14-16 ms at both 250 and 500/s (reads waiting behind the
//   writes' plan builds, whose share does not depend on the read rate), but
//   over five seeds p50 was 2.3-2.4 ms at 250/s (3.5 ms in one noisy
//   run) against 2.7-3.5 ms at 500/s, where reads queue on the one
//   dispatch thread.
const Spec kSolve{"solve", 100, 50.0, Ladder{100, 1.05, 112},
                  0.25, 0.15, 0.0, 0.20, 0.35};
const Spec kServeHot{"serve-hot", 150, 50.0, Ladder{40, 1.05, 112},
                     0.08, 0.45, 0.08, 0.06, 0.28};
const Spec kWireChurn{"wire-churn", 250, 100.0, Ladder{50, 1.05, 112},
                      0.08, 0.45, 0.08, 0.0, 0.34};

// Test Set 1 (BRO-ELL) and Test Set 2 (BRO-HYB) stand-ins plus one truss-FEM
// matrix (BRO-BCSR), so every auto-selected BRO kernel serves reads.
const std::vector<std::string> kServeHotSet = {
    "qcd5_4",   "venkat01", "rim",      "sme3Da",
    "rail4284", "scircuit", "truss-deck"};
// wire-churn reads small matrices, so framing and plan builds, not
// kernels, dominate a request.
const std::vector<std::string> kWireReadSet = {"e40r5000", "epb3", "fem",
                                               "truss-deck"};
// Uploaded and removed during wire-churn: each upload costs a decode on
// the server and a plan build on first use.
const std::vector<std::string> kChurnSet = {
    "rim", "sme3Da", "rail4284", "venkat01", "truss-tower", "truss-wide"};

// What a set-up-only process prints, followed by its steady-clock time.
constexpr const char* kSetupReady = "setup_ready_ns ";

// ---------------------------------------------------------------------------
// Checks

class Checks {
 public:
  bool add(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

Checks& checks() {
  static Checks c;
  return c;
}

bool bitwise_equal(std::span<const value_t> a, std::span<const value_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

bool close_to(std::span<const value_t> y, std::span<const value_t> ref) {
  if (y.size() != ref.size()) return false;
  double scale = 1, err = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    scale = std::max(scale, std::fabs(ref[i]));
    err = std::max(err, std::fabs(y[i] - ref[i]));
  }
  return err <= kSpmvTol * scale; // NaN compares false
}

double norm2(std::span<const value_t> v) {
  double s = 0;
  for (value_t e : v) s += e * e;
  return std::sqrt(s);
}

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t mix(std::uint64_t seed, const std::string& tag, std::uint64_t k) {
  std::uint64_t h = 1469598103934665603ull; // FNV-1a
  for (unsigned char c : tag) h = (h ^ c) * 1099511628211ull;
  return seed * 0x9e3779b97f4a7c15ull ^ h ^ (k * 0xbf58476d1ce4e5b9ull);
}

Vec random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Vec v(n);
  for (auto& e : v) e = double(rng() >> 11) * 0x1.0p-52 - 1.0; // [-1, 1)
  return v;
}

sparse::Csr generate(const std::string& id) {
  Scope s("sparse.gen");
  if (id.rfind("poisson-", 0) == 0) {
    const int n = std::stoi(id.substr(8));
    return sparse::generate_poisson2d(n, n);
  }
  const auto entry = sparse::find_suite_entry(id);
  if (!entry) throw std::runtime_error("unknown suite matrix " + id);
  return sparse::generate_suite_matrix(*entry, kSuiteScale);
}

/// The auto-selected format's plan, with the compression (core) and the
/// plan build (engine) timed as separate spans.
std::shared_ptr<engine::SpmvPlan> build_plan(
    std::shared_ptr<const core::Matrix> m) {
  const core::Format f = m->auto_format();
  {
    // The compressed representation, built once into the facade's cache;
    // the plan below then only sizes its workspace and picks kernels.
    Scope s("core.compress");
    const auto& t = engine::traits(f);
    if (t.resident_bytes) t.resident_bytes(*m);
  }
  Scope s("engine.plan_build");
  return std::make_shared<engine::SpmvPlan>(std::move(m), f);
}

/// One matrix of a workload with its right-hand-side pool and the answer
/// every path must return for each.
struct Mat {
  std::string id;
  std::shared_ptr<const core::Matrix> m;
  std::shared_ptr<engine::SpmvPlan> plan; // reference plan, 1 thread
  std::vector<Vec> x, want;
  std::vector<std::uint8_t> bro; // wire form (wire-churn only)

  double flops() const { return 2.0 * double(m->nnz()); }
};

enum class Expect { kCsrReference, kPlanBitwise };

/// Builds the plan and the right-hand-side pool. kPlanBitwise answers come
/// from the plan itself (serve and wire answers must match them bit for
/// bit); kCsrReference answers from sparse::spmv_csr_reference. Either way
/// the plan's answer is checked against the CSR reference here, so a wrong
/// kernel fails the run instead of defining the expected answer.
Mat make_mat(const std::string& id, sparse::Csr csr, std::uint64_t seed,
             Expect expect) {
  Mat mat;
  mat.id = id;
  mat.m = std::make_shared<const core::Matrix>(
      core::Matrix::from_csr(std::move(csr)));
  mat.plan = build_plan(mat.m);
  for (int k = 0; k < kPool; ++k) {
    mat.x.push_back(random_vec(std::size_t(mat.m->cols()), mix(seed, id, k)));
    Vec ref(std::size_t(mat.m->rows())), y(ref.size());
    sparse::spmv_csr_reference(mat.m->csr(), mat.x.back(), ref);
    {
      Scope s("engine.execute"); // also warms the plan before timing
      mat.plan->execute(mat.x.back(), y);
    }
    checks().add(close_to(y, ref));
    mat.want.push_back(expect == Expect::kPlanBitwise ? std::move(y)
                                                      : std::move(ref));
  }
  return mat;
}

void print_mat(const Mat& mat) {
  std::cout << "matrix " << mat.id << ": " << mat.m->rows() << " x "
            << mat.m->cols() << ", nnz " << mat.m->nnz() << ", format "
            << core::format_name(mat.plan->format()) << '\n';
}

// ---------------------------------------------------------------------------
// CPU rotation for the single-threaded solve workload. On a shared host a
// CPU can run a third slower for a fraction of a second to seconds while
// another runs at full speed; a thread that stays put samples one CPU's
// state for a whole phase, which makes whole runs fast or slow. Moving the
// benchmark thread to the next allowed CPU between units of work (a set-up
// process, a solve, a write, a few dozen reads) samples all of them.

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

void next_cpu() {
  static std::size_t next = 0;
  const auto& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set); // best effort
}

/// Undo next_cpu(), so that threads created afterwards (an OpenMP team)
/// may run anywhere.
void all_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : allowed_cpus()) CPU_SET(c, &set);
  if (!allowed_cpus().empty()) sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Open-loop reads

void wait_until(std::int64_t due_ns) {
  // Yield-spin rather than sleep: on a virtualised host a sleeping thread
  // can wake milliseconds late, which would read as generator lag.
  while (now_ns() < due_ns) std::this_thread::yield();
}

struct Reads {
  std::vector<double> latency_ms; // due time -> verified y
  std::vector<double> lag_ms;     // due time -> send
  std::size_t attempted = 0, ok = 0;
  double flops = 0;
  double wall_s = 0;
  bool aborted = false; // an answer exceeded the abort latency

  void add(const Reads& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    aborted = aborted || o.aborted;
    flops += o.flops;
    wall_s += o.wall_s;
  }
};

Trial to_trial(const Reads& r) {
  Trial t;
  t.attempted = r.attempted;
  t.ok = r.ok;
  t.p99_ms = percentile(r.latency_ms, 99);
  t.aborted = r.aborted;
  if (!r.lag_ms.empty()) {
    const std::size_t q = std::max<std::size_t>(1, r.lag_ms.size() / 4);
    t.lag_head_ms = median({r.lag_ms.begin(), r.lag_ms.begin() + q});
    t.lag_tail_ms = median({r.lag_ms.end() - q, r.lag_ms.end()});
  }
  return t;
}

/// Where reads go: a plan on the calling thread, the in-process server, or
/// the server behind the wire. run() sends `sched` open-loop and returns
/// once every request sent is answered and checked. It stops sending early
/// (and sets Reads::aborted) once an answer takes longer than `abort_ms`;
/// 0 never stops. closed_loop() keeps `window` requests outstanding for
/// `seconds`, cycling through `sched` and ignoring its due times, and
/// records no latencies: it measures throughput. Only the serving paths
/// have it; solve's closed-loop work is its CG solves.
class ReadPath {
 public:
  virtual ~ReadPath() = default;
  virtual Reads run(const std::vector<Arrival>& sched,
                    const std::vector<Mat>& mats, double abort_ms) = 0;
  virtual Reads closed_loop(const std::vector<Arrival>&,
                            const std::vector<Mat>&, double, std::size_t) {
    throw std::logic_error("this read path has no closed-loop phase");
  }
};

/// One checked answer.
void count_answer(Reads& r, const Mat& mat, bool ok) {
  checks().add(ok);
  ++r.attempted;
  if (ok) {
    ++r.ok;
    r.flops += mat.flops();
  }
}

/// Bookkeeping shared by the open-loop paths: one call per answered
/// request. Returns whether the answer took longer than `abort_ms`.
bool finish_request(Reads& r, const Mat& mat, std::int64_t due,
                    std::int64_t end, bool ok, double abort_ms) {
  count_answer(r, mat, ok);
  const double ms = double(end - due) * 1e-6;
  r.latency_ms.push_back(ms);
  return abort_ms > 0 && ms > abort_ms;
}

/// The single-threaded baseline: the generator executes each request itself
/// through the reference plan, so a request that arrives while another
/// executes queues behind it.
class LocalPath final : public ReadPath {
 public:
  Reads run(const std::vector<Arrival>& sched, const std::vector<Mat>& mats,
            double abort_ms) override {
    Reads r;
    Vec y;
    const std::int64_t t0 = now_ns() + kLeadNs;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      const Mat& mat = mats[a.matrix];
      const std::int64_t due = t0 + std::int64_t(a.due_s * 1e9);
      if (i % kRequestsPerCpu == 0) next_cpu();
      wait_until(due);
      const std::int64_t start = now_ns();
      r.lag_ms.push_back(double(start - due) * 1e-6);
      bool ok = false;
      {
        Scope root("bench.request", 0, due);
        tracer().record("bench.gen_lag", due, start, root.id(), root.id());
        y.resize(std::size_t(mat.m->rows()));
        {
          Scope s("engine.execute", root.id());
          mat.plan->execute(mat.x[a.x], y);
        }
        Scope s("bench.verify", root.id());
        ok = close_to(y, mat.want[a.x]);
      }
      if (finish_request(r, mat, due, now_ns(), ok, abort_ms)) {
        r.aborted = true;
        break;
      }
    }
    r.wall_s = double(now_ns() - t0) * 1e-9;
    return r;
  }
};

/// Submits to an in-process SpmvServer from the calling thread, which also
/// polls every outstanding future while it waits for the next due time, so
/// each answer is timed when it arrives rather than when the answers before
/// it have. One thread does both, so the server's dispatch threads leave a
/// CPU free (on a shared host, a spare CPU absorbs the neighbours' and the
/// OS's bursts instead of a dispatch thread).
///
/// Traced, a request's serve.get span runs from the return of submit to the
/// last poll that found the answer not ready, and bench.collect from there
/// to the poll that found it ready: the answer arrived somewhere in
/// bench.collect, which also holds the time spent sending and verifying
/// other requests. Only serve.* time counts as covered (layer_coverage), so
/// a slow collector shows as lost coverage.
class ServerPath final : public ReadPath {
 public:
  explicit ServerPath(serve::SpmvServer& server) : server_(server) {}

  Reads run(const std::vector<Arrival>& sched, const std::vector<Mat>& mats,
            double abort_ms) override {
    struct Pending {
      std::future<Vec> f;
      std::int64_t due = 0, sent = 0;
      std::int64_t not_ready = 0; // last poll that found no answer (traced)
      const Arrival* a = nullptr;
      std::uint64_t root = 0;
    };
    std::vector<Pending> pending;
    Reads r;

    const auto complete = [&](Pending& p) {
      const Mat& mat = mats[p.a->matrix];
      const std::int64_t g1 = now_ns();
      Vec y;
      bool ok = p.f.valid();
      try {
        if (ok) y = p.f.get();
      } catch (const std::exception&) {
        ok = false;
      }
      ok = ok && bitwise_equal(y, mat.want[p.a->x]);
      const std::int64_t end = now_ns();
      if (finish_request(r, mat, p.due, end, ok, abort_ms)) r.aborted = true;
      if (p.root != 0) {
        const std::int64_t seen = std::max(p.sent, p.not_ready);
        tracer().record("serve.get", p.sent, seen, p.root, p.root);
        tracer().record("bench.collect", seen, g1, p.root, p.root);
        tracer().record("bench.verify", g1, end, p.root, p.root);
        tracer().record("bench.request", p.due, end, 0, 0, p.root);
      }
    };
    // One pass over the outstanding futures; a rejected submit's invalid
    // future completes at once and counts as a miss.
    const auto poll = [&] {
      for (std::size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        if (p.f.valid() && p.f.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
          if (p.root != 0) p.not_ready = now_ns();
          ++i;
          continue;
        }
        complete(p);
        p = std::move(pending.back());
        pending.pop_back();
      }
      // Spin rather than block, like wait_until: a blocked thread's wake-up
      // delay would be timed as serving latency.
      std::this_thread::yield();
    };

    const std::int64_t t0 = now_ns() + kLeadNs;
    for (const Arrival& a : sched) {
      if (r.aborted) break;
      const Mat& mat = mats[a.matrix];
      Vec x = mat.x[a.x]; // the caller's copy, made before its due time
      Pending p;
      p.a = &a;
      p.due = t0 + std::int64_t(a.due_s * 1e9);
      p.root = tracer().enabled() ? tracer().new_id() : 0;
      while (now_ns() < p.due) poll();
      const std::int64_t s0 = now_ns();
      r.lag_ms.push_back(double(s0 - p.due) * 1e-6);
      try {
        p.f = server_.submit(mat.id, std::move(x));
      } catch (const std::exception&) {
        // Rejected: the invalid future counts as a miss in poll().
      }
      p.sent = now_ns();
      if (p.root != 0) {
        tracer().record("bench.gen_lag", p.due, s0, p.root, p.root);
        tracer().record("serve.submit", s0, p.sent, p.root, p.root);
      }
      pending.push_back(std::move(p));
    }
    while (!pending.empty()) poll();
    r.wall_s = double(now_ns() - t0) * 1e-9;
    return r;
  }

  Reads closed_loop(const std::vector<Arrival>& sched,
                    const std::vector<Mat>& mats, double seconds,
                    std::size_t window) override {
    Reads r;
    std::deque<std::pair<std::future<Vec>, const Arrival*>> q;
    const std::int64_t t0 = now_ns();
    const std::int64_t stop = t0 + std::int64_t(seconds * 1e9);
    for (std::size_t i = 0; !q.empty() || now_ns() < stop;) {
      if (q.size() < window && now_ns() < stop) {
        const Arrival& a = sched[i++ % sched.size()];
        const Mat& mat = mats[a.matrix];
        std::future<Vec> f;
        try {
          f = server_.submit(mat.id, mat.x[a.x]);
        } catch (const std::exception&) {
          // Rejected: the invalid future counts as a miss below.
        }
        q.emplace_back(std::move(f), &a);
        continue;
      }
      auto [f, a] = std::move(q.front());
      q.pop_front();
      bool ok = f.valid();
      Vec y;
      try {
        if (ok) y = f.get();
      } catch (const std::exception&) {
        ok = false;
      }
      const Mat& mat = mats[a->matrix];
      count_answer(r, mat, ok && bitwise_equal(y, mat.want[a->x]));
    }
    r.wall_s = double(now_ns() - t0) * 1e-9;
    return r;
  }

 private:
  serve::SpmvServer& server_;
};

/// One pipelined NetClient connection driven from the calling thread: a
/// request is sent at its due time unless the thread is blocked waiting for
/// the oldest answer, in which case it goes out late and the lateness shows
/// as generator lag (its latency still counts from the due time).
class WirePath final : public ReadPath {
 public:
  explicit WirePath(net::NetClient& client) : client_(client) {}

  Reads run(const std::vector<Arrival>& sched, const std::vector<Mat>& mats,
            double abort_ms) override {
    struct InFlight {
      std::uint64_t rid = 0;
      std::int64_t due = 0, sent = 0;
      const Arrival* a = nullptr;
      std::uint64_t root = 0;
    };
    std::deque<InFlight> inflight;
    Reads r;

    const auto complete_front = [&] {
      const InFlight f = inflight.front();
      inflight.pop_front();
      const Mat& mat = mats[f.a->matrix];
      const std::int64_t g0 = now_ns();
      const auto res = client_.wait_submit(f.rid);
      const std::int64_t g1 = now_ns();
      const bool ok = res.ok() && bitwise_equal(res.y, mat.want[f.a->x]);
      const std::int64_t end = now_ns();
      if (finish_request(r, mat, f.due, end, ok, abort_ms)) r.aborted = true;
      if (f.root != 0) {
        tracer().record("bench.pipeline", f.sent, g0, f.root, f.root);
        tracer().record("net.wait_submit", g0, g1, f.root, f.root);
        tracer().record("bench.verify", g1, end, f.root, f.root);
        tracer().record("bench.request", f.due, end, 0, 0, f.root);
      }
    };

    const std::int64_t t0 = now_ns() + kLeadNs;
    std::size_t i = 0;
    while ((i < sched.size() && !r.aborted) || !inflight.empty()) {
      if (i < sched.size() && !r.aborted) {
        const Arrival& a = sched[i];
        const std::int64_t due = t0 + std::int64_t(a.due_s * 1e9);
        if (inflight.empty() || now_ns() >= due) {
          InFlight f;
          f.a = &a;
          f.due = due;
          f.root = tracer().enabled() ? tracer().new_id() : 0;
          wait_until(due);
          const std::int64_t s0 = now_ns();
          r.lag_ms.push_back(double(s0 - due) * 1e-6);
          const Mat& mat = mats[a.matrix];
          f.rid = client_.enqueue_submit(mat.id, mat.x[a.x]);
          client_.flush();
          f.sent = now_ns();
          if (f.root != 0) {
            tracer().record("bench.gen_lag", due, s0, f.root, f.root);
            tracer().record("net.send_submit", s0, f.sent, f.root, f.root);
          }
          inflight.push_back(f);
          ++i;
          continue;
        }
      }
      complete_front();
    }
    r.wall_s = double(now_ns() - t0) * 1e-9;
    return r;
  }

  Reads closed_loop(const std::vector<Arrival>& sched,
                    const std::vector<Mat>& mats, double seconds,
                    std::size_t window) override {
    Reads r;
    std::deque<std::pair<std::uint64_t, const Arrival*>> q;
    const std::int64_t t0 = now_ns();
    const std::int64_t stop = t0 + std::int64_t(seconds * 1e9);
    for (std::size_t i = 0; !q.empty() || now_ns() < stop;) {
      if (q.size() < window && now_ns() < stop) {
        const Arrival& a = sched[i++ % sched.size()];
        const Mat& mat = mats[a.matrix];
        q.emplace_back(client_.enqueue_submit(mat.id, mat.x[a.x]), &a);
        client_.flush();
        continue;
      }
      const auto [rid, a] = q.front();
      q.pop_front();
      const auto res = client_.wait_submit(rid);
      const Mat& mat = mats[a->matrix];
      count_answer(r, mat, res.ok() && bitwise_equal(res.y, mat.want[a->x]));
    }
    r.wall_s = double(now_ns() - t0) * 1e-9;
    return r;
  }

 private:
  net::NetClient& client_;
};

// ---------------------------------------------------------------------------
// Writes: the time from handing a new matrix to the system until its first
// verified answer. The matrix object is prepared before the clock starts.

struct Writes {
  std::vector<double> latency_ms;
  std::vector<double> ack_ms; // UPLOAD_MATRIX acknowledgement (wire only)

  void add(const Writes& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    ack_ms.insert(ack_ms.end(), o.ack_ms.begin(), o.ack_ms.end());
  }
};

/// wire-churn's writer: its own NetClient on its own thread, sending a
/// seeded open-loop schedule of UPLOAD_MATRIX (then one SUBMIT on the new
/// matrix) and REMOVE of the upload kChurnLive before.
class ChurnWriter {
 public:
  ChurnWriter(int port, const std::vector<Mat>& churn)
      : client_("127.0.0.1", port), churn_(churn) {}
  /// Joins a writer still running when the reads it accompanied threw.
  ~ChurnWriter() {
    if (thread_.joinable()) thread_.join();
  }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void start(double seconds, std::uint64_t seed) {
    sched_ = open_loop_schedule(seed, kChurnWriteRate, seconds,
                                std::uint32_t(churn_.size()), 1);
    thread_ = std::thread([this] { loop(); });
  }

  Writes join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return std::move(out_);
  }

 private:
  void loop() {
    out_ = {};
    try {
      std::deque<std::string> live;
      const std::int64_t t0 = now_ns() + kLeadNs;
      for (const Arrival& a : sched_) {
        const Mat& mat = churn_[a.matrix];
        const std::string id = "churn-" + std::to_string(next_id_++);
        // Writes are timed from their send, so the writer may sleep.
        const std::int64_t due = t0 + std::int64_t(a.due_s * 1e9);
        const std::int64_t early = due - now_ns();
        if (early > 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(early));
        Scope root("bench.write");
        const std::int64_t s0 = now_ns();
        bool ok = false;
        try {
          {
            Scope s("net.upload_matrix");
            client_.upload_matrix(id, mat.bro);
          }
          const std::int64_t s1 = now_ns();
          out_.ack_ms.push_back(double(s1 - s0) * 1e-6);
          live.push_back(id);
          Scope s("net.submit");
          ok = bitwise_equal(client_.submit(id, mat.x[0]), mat.want[0]);
        } catch (const std::exception&) {
          ok = false;
        }
        checks().add(ok);
        out_.latency_ms.push_back(double(now_ns() - s0) * 1e-6);
        if (live.size() > std::size_t(kChurnLive)) {
          Scope s("net.remove_matrix");
          checks().add(client_.remove_matrix(live.front()));
          live.pop_front();
        }
      }
      for (const auto& id : live) checks().add(client_.remove_matrix(id));
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  net::NetClient client_;
  const std::vector<Mat>& churn_;
  std::vector<Arrival> sched_;
  std::thread thread_;
  Writes out_;
  std::exception_ptr error_;
  std::uint64_t next_id_ = 0;
};

// ---------------------------------------------------------------------------
// CG solves

struct SolveInputs {
  std::shared_ptr<const core::Matrix> m;
  std::vector<Vec> x_true, b;
};

SolveInputs make_solve_inputs(std::shared_ptr<const core::Matrix> m,
                              std::uint64_t seed) {
  SolveInputs in;
  in.m = std::move(m);
  for (int k = 0; k < kSolveRhs; ++k) {
    in.x_true.push_back(
        random_vec(std::size_t(in.m->cols()), mix(seed, "x_true", k)));
    Vec b(std::size_t(in.m->rows()));
    sparse::spmv_csr_reference(in.m->csr(), in.x_true.back(), b);
    in.b.push_back(std::move(b));
  }
  return in;
}

struct Solves {
  std::vector<double> secs;
  std::vector<double> iterations;
  double flops = 0, wall_s = 0;

  void add(const Solves& o) {
    secs.insert(secs.end(), o.secs.begin(), o.secs.end());
    iterations.insert(iterations.end(), o.iterations.begin(),
                      o.iterations.end());
    flops += o.flops;
    wall_s += o.wall_s;
  }
};

/// CG solves through `op` until `budget_s` has passed (at least three);
/// each solution is checked against x_true and its true residual. With
/// `rotate`, each solve starts on the next CPU.
Solves run_solves(const SolveInputs& in, const solver::Operator& op,
                  double budget_s, bool rotate) {
  Solves out;
  solver::JacobiPreconditioner jacobi(in.m->csr());
  const solver::Preconditioner precond = [&](std::span<const value_t> r,
                                             std::span<value_t> z) {
    Scope s("solver.precond");
    jacobi(r, z);
  };
  solver::SolveOptions opts;
  opts.tolerance = kSolveTol;
  opts.max_iterations = kMaxCgIterations;
  std::size_t applies = 0;
  const solver::Operator counted = [&](std::span<const value_t> x,
                                       std::span<value_t> y) {
    ++applies;
    op(x, y);
  };

  Scope phase("bench.solve_phase");
  const std::int64_t t0 = now_ns();
  Vec x(std::size_t(in.m->cols())), r(std::size_t(in.m->rows()));
  for (int k = 0; out.secs.size() < 3 ||
                  double(now_ns() - t0) * 1e-9 < budget_s;
       ++k) {
    const int j = k % kSolveRhs;
    if (rotate) next_cpu();
    std::fill(x.begin(), x.end(), 0.0);
    const std::int64_t s0 = now_ns();
    solver::SolveResult res;
    {
      Scope s("solver.cg");
      res = solver::cg(counted, in.b[j], x, opts, precond);
    }
    out.secs.push_back(double(now_ns() - s0) * 1e-9);
    out.iterations.push_back(res.iterations);
    Scope s("bench.verify");
    sparse::spmv_csr_reference(in.m->csr(), x, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = in.b[j][i] - r[i];
    Vec err = x;
    for (std::size_t i = 0; i < err.size(); ++i) err[i] -= in.x_true[j][i];
    checks().add(res.converged &&
                 norm2(r) <= 2 * kSolveTol * norm2(in.b[j]) &&
                 norm2(err) <= kSolveErrTol * norm2(in.x_true[j]));
  }
  out.wall_s = double(now_ns() - t0) * 1e-9;
  out.flops = double(applies) * 2.0 * double(in.m->nnz());
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  explicit Workload(const Spec& spec) : spec_(spec) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const Spec& spec() const { return spec_; }
  const std::vector<Mat>& reads() const { return reads_; }
  virtual ReadPath& path() = 0;
  virtual Solves solve(double budget_s) = 0;
  /// Closed-loop writes for `budget_s` (at least kMinWrites); wire-churn
  /// writes during reads instead.
  virtual Writes writes(double budget_s) = 0;
  virtual ChurnWriter* churn() { return nullptr; }
  virtual serve::SpmvServer* server() { return nullptr; }
  virtual net::NetServer* net_server() { return nullptr; }
  /// Threads this workload runs besides OpenMP (1 each): generator,
  /// collector (one thread on serve-hot), writer, dispatch and event-loop threads.
  virtual std::string thread_budget() const = 0;

 protected:
  const Spec& spec_;
  std::vector<Mat> reads_;
};

class SolveWorkload final : public Workload {
 public:
  SolveWorkload(std::uint64_t seed, bool verbose) : Workload(kSolve) {
    const std::string id = "poisson-" + std::to_string(kSolveGrid);
    reads_.push_back(make_mat(id, generate(id), seed, Expect::kCsrReference));
    solve_ = make_solve_inputs(reads_[0].m, seed);
    if (verbose) print_mat(reads_[0]);
  }

  ReadPath& path() override { return local_; }

  Solves solve(double budget_s) override {
    const solver::Operator apply = engine::plan_operator(reads_[0].plan);
    return run_solves(
        solve_,
        [&](std::span<const value_t> x, std::span<value_t> y) {
          Scope s("engine.execute");
          apply(x, y);
        },
        budget_s, true);
  }

  Writes writes(double budget_s) override {
    Writes w;
    const Mat& base = reads_[0];
    Vec y(std::size_t(base.m->rows()));
    const std::int64_t stop = now_ns() + std::int64_t(budget_s * 1e9);
    for (int k = 0; k < kMinWrites || now_ns() < stop; ++k) {
      auto m = std::make_shared<const core::Matrix>(
          core::Matrix::from_csr(base.m->csr()));
      const int j = k % kPool;
      next_cpu();
      Scope root("bench.write");
      const std::int64_t t0 = now_ns();
      auto plan = build_plan(m);
      {
        Scope s("engine.execute");
        plan->execute(base.x[j], y);
      }
      checks().add(close_to(y, base.want[j]));
      w.latency_ms.push_back(double(now_ns() - t0) * 1e-6);
    }
    return w;
  }

  std::string thread_budget() const override {
    return "generator 1 (executes reads and solves itself), OpenMP 1";
  }

 private:
  LocalPath local_;
  SolveInputs solve_;
};

serve::ServerOptions server_options(int dispatch_threads) {
  serve::ServerOptions o;
  o.threads = dispatch_threads;
  o.pools = 0; // execute on the dispatch threads
  o.max_batch = kMaxBatch;
  // Deep enough that no probe above capacity is refused: overload shows as
  // latency and lag, and every request is answered.
  o.max_queue = std::size_t{1} << 20;
  return o;
}

/// Warm every plan (and SpMM batch sizes up to kMaxBatch) before timing.
void warm(serve::SpmvServer& server, const std::vector<Mat>& mats) {
  Scope s("serve.warm");
  for (const Mat& mat : mats) {
    std::vector<std::future<Vec>> fs;
    for (int k = 0; k < kMaxBatch; ++k)
      fs.push_back(server.submit(mat.id, mat.x[std::size_t(k % kPool)]));
    for (int k = 0; k < kMaxBatch; ++k)
      checks().add(bitwise_equal(fs[std::size_t(k)].get(),
                                 mat.want[std::size_t(k % kPool)]));
  }
}

class ServeHotWorkload final : public Workload {
 public:
  ServeHotWorkload(std::uint64_t seed, int nproc, bool verbose)
      : Workload(kServeHot),
        // Besides the sender, one CPU stays free (see ServerPath).
        dispatch_(std::max(1, nproc - 2)),
        server_(server_options(dispatch_)),
        path_(server_) {
    for (const auto& id : kServeHotSet)
      reads_.push_back(make_mat(id, generate(id), seed, Expect::kPlanBitwise));
    const std::string pid = "poisson-" + std::to_string(kServedSolveGrid);
    poisson_ = make_mat(pid, generate(pid), seed, Expect::kPlanBitwise);
    solve_ = make_solve_inputs(poisson_.m, seed);
    {
      Scope s("serve.add_matrix");
      for (const Mat& mat : reads_) server_.add_matrix(mat.id, mat.m);
      server_.add_matrix(poisson_.id, poisson_.m);
    }
    warm(server_, reads_);
    warm(server_, {poisson_});
    if (verbose) {
      for (const Mat& mat : reads_) print_mat(mat);
      print_mat(poisson_);
    }
  }

  ReadPath& path() override { return path_; }

  Solves solve(double budget_s) override {
    return run_solves(
        solve_,
        [&](std::span<const value_t> x, std::span<value_t> y) {
          std::future<Vec> f;
          {
            Scope s("serve.submit");
            f = server_.submit(poisson_.id, Vec(x.begin(), x.end()));
          }
          Scope s("serve.get");
          const Vec r = f.get();
          std::copy(r.begin(), r.end(), y.begin());
        },
        budget_s, false);
  }

  Writes writes(double budget_s) override {
    Writes w;
    const std::int64_t stop = now_ns() + std::int64_t(budget_s * 1e9);
    for (int k = 0; k < kMinWrites || now_ns() < stop; ++k) {
      const Mat& base = reads_[std::size_t(k) % reads_.size()];
      auto m = std::make_shared<const core::Matrix>(
          core::Matrix::from_csr(base.m->csr()));
      const std::string id = "write-" + std::to_string(k);
      const int j = k % kPool;
      bool ok = false;
      {
        Scope root("bench.write");
        const std::int64_t t0 = now_ns();
        {
          Scope s("serve.add_matrix");
          server_.add_matrix(id, std::move(m));
        }
        std::future<Vec> f;
        {
          Scope s("serve.submit");
          f = server_.submit(id, base.x[std::size_t(j)]);
        }
        {
          Scope s("serve.get");
          ok = bitwise_equal(f.get(), base.want[std::size_t(j)]);
        }
        w.latency_ms.push_back(double(now_ns() - t0) * 1e-6);
      }
      checks().add(ok);
      server_.remove_matrix(id);
    }
    return w;
  }

  serve::SpmvServer* server() override { return &server_; }

  std::string thread_budget() const override {
    return "generator and collector 1, server dispatch " +
           std::to_string(dispatch_) + ", OpenMP 1 per kernel call";
  }

 private:
  int dispatch_;
  serve::SpmvServer server_;
  ServerPath path_;
  Mat poisson_;
  SolveInputs solve_;
};

class WireChurnWorkload final : public Workload {
 public:
  WireChurnWorkload(std::uint64_t seed, int nproc, bool verbose)
      : Workload(kWireChurn),
        dispatch_(std::max(1, nproc - 3)),
        server_(server_options(dispatch_)),
        net_(server_),
        client_("127.0.0.1", net_.port()),
        wire_(client_),
        in_process_(server_) {
    net_.start();
    const std::string pid = "poisson-" + std::to_string(kServedSolveGrid);
    for (const auto& id : kWireReadSet) reads_.push_back(upload(id, seed));
    for (const auto& id : kChurnSet) churn_set_.push_back(prepare(id, seed));
    poisson_ = upload(pid, seed);
    solve_ = make_solve_inputs(poisson_.m, seed);
    warm(server_, reads_);
    warm(server_, {poisson_});
    churn_.emplace(net_.port(), churn_set_);
    if (verbose) {
      for (const Mat& mat : reads_) print_mat(mat);
      print_mat(poisson_);
      for (const Mat& mat : churn_set_) print_mat(mat);
    }
  }

  ~WireChurnWorkload() override {
    churn_.reset();
    net_.stop();
  }

  ReadPath& path() override { return wire_; }
  ReadPath& in_process_path() { return in_process_; }

  Solves solve(double budget_s) override {
    return run_solves(
        solve_,
        [&](std::span<const value_t> x, std::span<value_t> y) {
          Scope s("net.submit");
          const Vec r = client_.submit(poisson_.id, x);
          std::copy(r.begin(), r.end(), y.begin());
        },
        budget_s, false);
  }

  Writes writes(double) override { return {}; }
  ChurnWriter* churn() override { return &*churn_; }
  serve::SpmvServer* server() override { return &server_; }
  net::NetServer* net_server() override { return &net_; }

  std::string thread_budget() const override {
    return "reader 1, writer 1, net event loop 1, server dispatch " +
           std::to_string(dispatch_) + ", OpenMP 1 per kernel call";
  }

 private:
  /// The matrix in its auto-selected format's .bro form, and answers from a
  /// plan built on the decoded copy — what the server will plan from.
  Mat prepare(const std::string& id, std::uint64_t seed) {
    const auto src = core::Matrix::from_csr(generate(id));
    std::vector<std::uint8_t> bytes;
    {
      Scope s("core.serialize");
      bytes = net::matrix_to_bro_bytes(src, src.auto_format());
    }
    Mat mat = make_mat(id, net::matrix_from_bro_bytes(bytes).csr(), seed,
                       Expect::kPlanBitwise);
    mat.bro = std::move(bytes);
    return mat;
  }

  Mat upload(const std::string& id, std::uint64_t seed) {
    Mat mat = prepare(id, seed);
    Scope s("net.upload_matrix");
    client_.upload_matrix(mat.id, mat.bro);
    return mat;
  }

  int dispatch_;
  serve::SpmvServer server_;
  net::NetServer net_;
  net::NetClient client_;
  WirePath wire_;
  ServerPath in_process_;
  std::vector<Mat> churn_set_;
  std::optional<ChurnWriter> churn_;
  Mat poisson_;
  SolveInputs solve_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& cfg, bool verbose) {
  if (cfg.workload == "solve")
    return std::make_unique<SolveWorkload>(cfg.seed, verbose);
  if (cfg.workload == "serve-hot")
    return std::make_unique<ServeHotWorkload>(cfg.seed, cfg.host.nproc,
                                              verbose);
  if (cfg.workload == "wire-churn")
    return std::make_unique<WireChurnWorkload>(cfg.seed, cfg.host.nproc,
                                               verbose);
  throw std::runtime_error("unknown workload " + cfg.workload);
}

// ---------------------------------------------------------------------------
// Measurement

/// Serving-layer counters, read as counts and sums (never percentiles)
/// from SpmvServer::metrics() and NetServer::stats().
struct Counters {
  double batches = 0, served = 0, exec_s = 0, hits = 0, misses = 0,
         rejected = 0, frames_in = 0;

  Counters operator-(const Counters& o) const {
    return {batches - o.batches,   served - o.served, exec_s - o.exec_s,
            hits - o.hits,         misses - o.misses, rejected - o.rejected,
            frames_in - o.frames_in};
  }
  Counters& operator+=(const Counters& o) {
    *this = {batches + o.batches,   served + o.served, exec_s + o.exec_s,
             hits + o.hits,         misses + o.misses, rejected + o.rejected,
             frames_in + o.frames_in};
    return *this;
  }
};

Counters counters(Workload& w) {
  Counters c;
  if (serve::SpmvServer* s = w.server()) {
    const serve::ServerMetrics m = s->metrics();
    c.batches = double(m.batches);
    c.served = double(m.served);
    c.exec_s = m.execute.sum();
    c.hits = double(m.cache.hits);
    c.misses = double(m.cache.misses);
    c.rejected = double(m.rejected);
  }
  if (net::NetServer* n = w.net_server())
    c.frames_in = double(n->stats().frames_in);
  return c;
}

struct Measured {
  Solves solves;
  Reads reads; // reference-rate phases
  Reads burst; // closed-loop read phases
  Writes writes;
  Counters serve; // over the reference-rate phases
  double rss_mb = 0; // peak RSS after the first round, before the ladder
  LadderResult ladder;
  Reads ladder_reads;
};

/// Open-loop reads at `rate` for `seconds`, with wire-churn's writer running
/// alongside on its own schedule.
Reads read_phase(Workload& w, ReadPath& path, double rate, double seconds,
                 std::uint64_t seed, Writes* writes, double abort_ms = 0) {
  const auto sched =
      open_loop_schedule(seed, rate, seconds, std::uint32_t(w.reads().size()),
                         std::uint32_t(kPool));
  ChurnWriter* churn = w.churn();
  if (churn) churn->start(seconds, seed ^ 0x5752495445ull);
  Reads r = path.run(sched, w.reads(), abort_ms);
  if (churn) {
    Writes done = churn->join();
    if (writes) writes->add(done);
  }
  return r;
}

Measured measure(Workload& w, const RunConfig& cfg, bool with_ladder) {
  const Spec& spec = w.spec();
  Measured out;
  // Solves, reads and writes run in kRounds rounds, and the ladder's trials
  // run between them, so each phase samples the whole run rather than one
  // stretch of it: host speed drifts over seconds, and one stretch can be
  // all fast or all slow.
  int rounds = 0;
  const auto round = [&] {
    out.solves.add(w.solve(spec.solve_share * cfg.seconds / kRounds));
    const Counters before = counters(w);
    out.reads.add(read_phase(w, w.path(), spec.ref_rate,
                             spec.read_share * cfg.seconds / kRounds,
                             mix(cfg.seed, "reads", std::uint64_t(rounds)),
                             &out.writes));
    out.serve += counters(w) - before;
    if (spec.burst_share > 0) {
      const auto sched = open_loop_schedule(
          mix(cfg.seed, "burst", std::uint64_t(rounds)), 4096, 1.0,
          std::uint32_t(w.reads().size()), std::uint32_t(kPool));
      out.burst.add(w.path().closed_loop(
          sched, w.reads(), spec.burst_share * cfg.seconds / kRounds,
          kBurstWindow));
    }
    out.writes.add(w.writes(spec.write_share * cfg.seconds / kRounds));
    // Before any ladder trial: an overloaded trial queues requests.
    if (++rounds == 1) out.rss_mb = peak_rss_mb();
  };
  round();

  if (with_ladder) {
    const double probe_s = spec.ladder_share * cfg.seconds / kLadderProbes;
    int probe = 0;
    out.ladder = search_ladder(spec.ladder, spec.p99_limit_ms, [&](double rate) {
      if (probe > 0 && probe % (kLadderProbes / kRounds) == 0 &&
          rounds < kRounds)
        round();
      // A wrong answer already fails the run; the remaining rungs fail
      // without a trial, so a broken kernel does not spend minutes on long
      // low-rate trials.
      if (checks().failed() > 0) {
        Trial t;
        t.aborted = true;
        return t;
      }
      const double secs = std::max(probe_s, double(kMinProbeSamples) / rate);
      Reads r = read_phase(w, w.path(), rate, secs,
                           mix(cfg.seed, "ladder", std::uint64_t(++probe)),
                           nullptr, kAbortFactor * spec.p99_limit_ms);
      const Trial t = to_trial(r);
      std::cout << "ladder " << rate << " req/s"
                << (t.aborted ? " (aborted)" : "") << ": p99 " << t.p99_ms
                << " ms over " << r.latency_ms.size() << ", ok " << t.ok
                << "/" << t.attempted << ", lag " << t.lag_head_ms << " -> "
                << t.lag_tail_ms << " ms: "
                << (trial_passes(t, spec.p99_limit_ms) ? "pass" : "fail")
                << '\n';
      out.ladder_reads.add(r);
      return t;
    });
  }
  while (rounds < kRounds) round();
  return out;
}

std::string count_note(std::size_t n, const char* what = "samples") {
  return "n=" + std::to_string(n) + " " + what;
}

void add_latency(std::vector<Metric>& ms, const std::string& p50_name,
                 const std::string& tail_name, double tail_wanted,
                 const std::vector<double>& samples) {
  const double tail = std::min(tail_wanted, tail_percentile(samples.size()));
  ms.push_back({p50_name, median(samples), "ms", count_note(samples.size())});
  std::ostringstream note;
  note << "p" << tail << " over n=" << samples.size() << ", "
       << samples_beyond(samples.size(), tail) << " beyond";
  ms.push_back({tail_name, percentile(samples, tail), "ms", note.str()});
}

bool is_solve(const Workload& w) { return &w.spec() == &kSolve; }

double headline(const Workload& w, const Measured& m) {
  return is_solve(w) ? median(m.solves.secs) : median(m.reads.latency_ms);
}

// ---------------------------------------------------------------------------
// End-to-end run

/// Seconds from spawning this binary in set-up-only mode to the moment the
/// child reports its set-up done: process start (exec, loading, runtime
/// initialisation) plus the workload's set-up, in a fresh process each time.
double timed_setup_process(const RunConfig& cfg) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fd[0]);
  posix_spawn_file_actions_addclose(&fa, fd[1]);
  const std::string seed = std::to_string(cfg.seed);
  const char* exe = "/proc/self/exe";
  const std::vector<const char*> args = {
      exe,       "--workload", cfg.workload.c_str(), "--seed", seed.c_str(),
      "--seconds", "1",        "--trace",            "0",      "--setup-only",
      "1",       nullptr};
  pid_t pid = 0;
  const std::int64_t t0 = now_ns();
  const int err = posix_spawn(&pid, exe, &fa, nullptr,
                              const_cast<char* const*>(args.data()), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fd[1]);
  std::string out;
  if (err == 0) {
    char buf[256];
    for (ssize_t n; (n = read(fd[0], buf, sizeof(buf))) != 0;) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      out.append(buf, std::size_t(n));
    }
  }
  close(fd[0]);
  int status = 0;
  if (err != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up process failed");
  const auto at = out.rfind(kSetupReady);
  if (at == std::string::npos)
    throw std::runtime_error("set-up process reported no time");
  const std::int64_t ready =
      std::stoll(out.substr(at + std::strlen(kSetupReady)));
  return double(ready - t0) * 1e-9;
}

RunReport run_end_to_end(const RunConfig& cfg) {
  std::vector<double> setup_s;
  // The single-threaded solve set-up runs each process on the next CPU (a
  // child inherits the affinity), like solve's other units of work.
  const bool rotate = cfg.workload == kSolve.name;
  for (int r = 0; r < kSetups; ++r) {
    if (rotate) next_cpu();
    setup_s.push_back(timed_setup_process(cfg));
  }
  all_cpus();
  const std::unique_ptr<Workload> w = make_workload(cfg, true);
  std::cout << "threads " << w->thread_budget() << '\n';
  const Measured m = measure(*w, cfg, true);

  RunReport rep;
  auto& ms = rep.metrics;
  ms.push_back({"setup_s", median(setup_s), "s",
                "median of " + std::to_string(kSetups) +
                    " processes, spawn to set-up done"});
  ms.push_back({"solve_s", median(m.solves.secs), "s",
                count_note(m.solves.secs.size(), "solves") + ", median " +
                    std::to_string(median(m.solves.iterations)) +
                    " iterations"});
  // Closed-loop phases only: an open-loop phase's flops are set by its
  // offered rate, not by the program's speed.
  const double flops = m.solves.flops + m.burst.flops;
  const double wall = m.solves.wall_s + m.burst.wall_s;
  ms.push_back({"spmv_gflops", flops / wall * 1e-9, "GF/s",
                m.burst.attempted ? "solves and closed-loop reads" : "solves"});
  add_latency(ms, "p50_ms", "p99_ms", 99, m.reads.latency_ms);
  ms.push_back({"max_rps", m.ladder.rate, "1/s",
                "rung " + std::to_string(m.ladder.rung) + ", " +
                    std::to_string(m.ladder.probes) + " probes, p99 limit " +
                    std::to_string(w->spec().p99_limit_ms) + " ms"});
  add_latency(ms, "write_p50_ms", "write_p90_ms", 90, m.writes.latency_ms);
  const std::uint64_t att = checks().attempted(), fail = checks().failed();
  ms.push_back({"ok_frac", att ? double(att - fail) / double(att) : 0.0, "frac",
                count_note(att, "checks")});
  ms.push_back({"peak_rss_mb", m.rss_mb, "MB", "before any ladder trial"});
  std::cout << "reads at " << w->spec().ref_rate << " req/s ("
            << 100 * w->spec().ref_rate / m.ladder.rate
            << "% of max_rps): generator lag p99 "
            << percentile(m.reads.lag_ms, 99) << " ms over "
            << m.reads.lag_ms.size() << '\n';
  rep.attempted = att;
  rep.failed = fail;
  rep.correct = fail == 0 && att > 0;
  return rep;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

struct SweepResult {
  std::map<std::string, std::pair<double, double>> by_format; // flops, secs
  double spmm_flops = 0, spmm_secs = 0;
  double mt_flops = 0, mt_secs = 0;
  double one_flops = 0, one_secs = 0; // auto format, 1 thread
  double bytes = 0, useful = 0;       // for flop_per_byte
  double auto_eff = 0; // sum over matrices: auto rate / best forced rate
};

/// Time `fn` (one apply of `flops`) for at least kSweepSeconds and 3 calls.
std::pair<double, double> time_applies(const std::function<void()>& fn,
                                       double flops) {
  fn(); // warm
  int n = 0;
  const std::int64_t t0 = now_ns();
  while (n < 3 || double(now_ns() - t0) * 1e-9 < kSweepSeconds) {
    fn();
    ++n;
  }
  return {flops * n, double(now_ns() - t0) * 1e-9};
}

/// Forced-format 1-thread SpMV for CSR and every applicable BRO format,
/// SpMM at k = 8 and SpMV at nproc threads, on fresh copies of the read set.
SweepResult kernel_sweep(const std::vector<Mat>& mats, int nproc) {
  SweepResult out;
  for (const Mat& base : mats) {
    auto m = std::make_shared<const core::Matrix>(
        core::Matrix::from_csr(base.m->csr()));
    const double f = base.flops();
    const Vec& x = base.x[0];
    Vec ref(std::size_t(m->rows())), y(ref.size());
    sparse::spmv_csr_reference(m->csr(), x, ref);
    double best = 0;
    for (const auto& t : engine::format_registry()) {
      if (!(t.format == core::Format::kCsr || t.compressed)) continue;
      if (!t.applicable(m->csr(), core::MatrixOptions{}.max_ell_expand))
        continue;
      engine::SpmvPlan plan(m, t.format);
      const auto [fl, s] = time_applies([&] { plan.execute(x, y); }, f);
      checks().add(close_to(y, ref));
      auto& acc = out.by_format[t.name];
      acc.first += fl;
      acc.second += s;
      best = std::max(best, fl / s);
    }
    engine::SpmvPlan plan(m);
    const auto [fl1, s1] = time_applies([&] { plan.execute(x, y); }, f);
    out.one_flops += fl1;
    out.one_secs += s1;
    out.auto_eff += fl1 / s1 / best;
    const auto& t = plan.format_traits();
    const double rep_bytes =
        t.resident_bytes ? double(t.resident_bytes(*m))
                         : double(plan.resident_bytes());
    out.bytes += rep_bytes + 8.0 * double(m->rows() + m->cols());
    out.useful += f;

    const int k = kMaxBatch;
    Vec xs(std::size_t(m->cols()) * k), ys(std::size_t(m->rows()) * k);
    for (std::size_t c = 0; c < std::size_t(m->cols()); ++c)
      for (int j = 0; j < k; ++j)
        xs[c * k + std::size_t(j)] = base.x[std::size_t(j % kPool)][c];
    const auto [fk, sk] =
        time_applies([&] { plan.execute_multi(xs, ys, k); }, f * k);
    out.spmm_flops += fk;
    out.spmm_secs += sk;
    bool same = true;
    for (int j = 0; j < k; ++j) {
      plan.execute(base.x[std::size_t(j % kPool)], y);
      for (std::size_t r = 0; r < y.size(); ++r)
        same = same && std::memcmp(&y[r], &ys[r * k + std::size_t(j)],
                                   sizeof(value_t)) == 0;
    }
    checks().add(same);
  }
  // Wide last: the OpenMP team it creates stays parked afterwards.
  all_cpus();
  omp_set_num_threads(nproc);
  for (const Mat& base : mats) {
    engine::SpmvPlan plan(base.m);
    Vec y(std::size_t(base.m->rows()));
    const auto [fl, s] =
        time_applies([&] { plan.execute(base.x[0], y); }, base.flops());
    checks().add(close_to(y, base.want[0]));
    out.mt_flops += fl;
    out.mt_secs += s;
  }
  omp_set_num_threads(1);
  return out;
}

std::vector<double> span_ms(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(double(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double e : v) s += e;
  return s;
}

RunReport run_traced(const RunConfig& cfg) {
  tracer().enable(true);
  auto w = make_workload(cfg, true);
  tracer().enable(false);
  const std::vector<Span> setup = tracer().spans();
  tracer().clear();
  std::cout << "threads " << w->thread_budget() << '\n';

  // Untraced and traced passes share --seconds, so a traced run takes about
  // as long as an untraced one.
  RunConfig half = cfg;
  half.seconds = cfg.seconds / 2;
  const Measured plain = measure(*w, half, false);
  tracer().enable(true);
  const Measured traced = measure(*w, half, false);
  tracer().enable(false);
  const std::vector<Span> spans = tracer().spans();

  // wire-churn: the same read mix, no writes, over the wire and in process.
  double rtt_overhead_ms = 0;
  if (auto* wc = dynamic_cast<WireChurnWorkload*>(w.get())) {
    const auto sched = open_loop_schedule(
        mix(cfg.seed, "rtt", 0), w->spec().ref_rate,
        kRttShare * cfg.seconds,
        std::uint32_t(w->reads().size()), std::uint32_t(kPool));
    const Reads over_wire = wc->path().run(sched, w->reads(), 0);
    const Reads in_process = wc->in_process_path().run(sched, w->reads(), 0);
    rtt_overhead_ms =
        median(over_wire.latency_ms) - median(in_process.latency_ms);
  }
  const SweepResult sweep = kernel_sweep(w->reads(), cfg.host.nproc);

  RunReport rep;
  auto& ms = rep.metrics;
  auto dur_s = [&](const std::vector<Span>& from, const char* name) {
    return sum(span_ms(from, name)) * 1e-3;
  };
  ms.push_back({"sparse.gen_s", dur_s(setup, "sparse.gen"), "s", "set-up"});
  ms.push_back({"core.compress_s", dur_s(setup, "core.compress"), "s",
                "set-up, all plans"});
  double eta = 0, idx_bytes = 0, nnz = 0, resident = 0;
  std::map<std::string, int> formats;
  for (const Mat& mat : w->reads()) {
    const core::Savings s = mat.m->savings();
    eta += s.eta();
    idx_bytes += double(s.compressed_bytes);
    nnz += double(mat.m->nnz());
    resident += double(mat.plan->resident_bytes());
    ++formats[core::format_name(mat.plan->format())];
  }
  const double n_reads = double(w->reads().size());
  ms.push_back({"core.eta", eta / n_reads, "frac", "mean over the read set"});
  ms.push_back({"core.index_bytes_per_nnz", idx_bytes / nnz, "B",
                "auto-selected format"});
  ms.push_back({"engine.plan_build_s", dur_s(setup, "engine.plan_build"), "s",
                "set-up, after compress"});
  const auto exec = span_ms(spans, "engine.execute");
  const auto setup_exec = span_ms(setup, "engine.execute");
  const auto& exec_src = exec.empty() ? setup_exec : exec;
  ms.push_back({"engine.execute_ms_p50", median(exec_src), "ms",
                count_note(exec_src.size())});
  ms.push_back({"engine.resident_mb", resident / 1e6, "MB", "read set"});
  for (const char* f : {"CSR", "BRO-ELL", "BRO-HYB", "BRO-BCSR"})
    ms.push_back({std::string("engine.format.") + f,
                  double(formats.count(f) ? formats.at(f) : 0), "count",
                  "read-set matrices auto-selecting it"});
  std::cout << "engine.format:";
  for (const auto& [f, n] : formats) std::cout << ' ' << f << " x" << n;
  std::cout << '\n';

  for (const auto& t : engine::format_registry()) {
    if (!(t.format == core::Format::kCsr || t.compressed)) continue;
    const auto it = sweep.by_format.find(t.name);
    const double g = it == sweep.by_format.end()
                         ? 0
                         : it->second.first / it->second.second * 1e-9;
    ms.push_back({std::string("kernels.spmv_gflops.") + t.name, g, "GF/s",
                  it == sweep.by_format.end() ? "not applicable"
                                              : "forced, 1 thread"});
  }
  ms.push_back({"engine.auto_format_eff",
                sweep.auto_eff / double(w->reads().size()), "frac",
                "auto-selected format's rate / best forced format's, mean"});
  ms.push_back({"kernels.flop_per_byte", sweep.useful / sweep.bytes, "flop/B",
                "computed: representation + x + y bytes"});
  ms.push_back({"kernels.spmm_gflops_k8", sweep.spmm_flops / sweep.spmm_secs *
                                              1e-9, "GF/s", "1 thread"});
  const double g1 = sweep.one_flops / sweep.one_secs;
  const double gmt = sweep.mt_flops / sweep.mt_secs;
  ms.push_back({"kernels.spmv_gflops_mt", gmt * 1e-9, "GF/s",
                std::to_string(cfg.host.nproc) + " threads"});
  ms.push_back({"kernels.mt_scaling_eff", gmt / (g1 * cfg.host.nproc), "frac",
                "vs " + std::to_string(g1 * 1e-9) + " GF/s at 1 thread"});

  ms.push_back({"solver.iterations", median(traced.solves.iterations),
                "count", "median per solve"});
  // Operator applies are the spans CG calls directly.
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& sp : spans) by_id[sp.id] = &sp;
  double apply_ms = 0;
  for (const Span& sp : spans) {
    const auto p = by_id.find(sp.parent);
    if (p != by_id.end() && std::strcmp(p->second->name, "solver.cg") == 0 &&
        std::strcmp(sp.name, "solver.precond") != 0)
      apply_ms += double(sp.end_ns - sp.start_ns) * 1e-6;
  }
  const double cg_ms = sum(span_ms(spans, "solver.cg"));
  ms.push_back({"solver.apply_frac", cg_ms > 0 ? apply_ms / cg_ms : 0, "frac",
                "operator applies / CG wall"});

  const auto submit = span_ms(spans, "serve.submit");
  ms.push_back({"serve.submit_us",
                submit.empty() ? 0 : sum(submit) / double(submit.size()) * 1e3,
                "us", count_note(submit.size())});
  const Counters& c = traced.serve;
  const double batches = c.batches;
  const double batch_mean = batches > 0 ? c.served / batches : 0;
  const double busy =
      w->server() ? c.exec_s / (traced.reads.wall_s *
                                w->server()->options().threads)
                  : 0;
  const double misses = c.misses;
  const double hit_ratio =
      c.hits + misses > 0 ? c.hits / (c.hits + misses) : 0;
  const double rejected = c.rejected;
  ms.push_back({"serve.batches", batches, "count", "reference-rate phase"});
  ms.push_back({"serve.batch_size_mean", batch_mean, "count", ""});
  ms.push_back({"serve.exec_busy_frac", busy, "frac",
                "execute time / (wall x dispatch threads)"});
  ms.push_back({"serve.cache_hit_ratio", hit_ratio, "frac", ""});
  ms.push_back({"serve.cache_misses", misses, "count", ""});
  ms.push_back({"serve.rejected", rejected, "count", ""});

  const auto acks = traced.writes.ack_ms;
  ms.push_back({"net.upload_ack_ms", median(acks), "ms",
                count_note(acks.size())});
  ms.push_back({"net.rtt_overhead_ms", rtt_overhead_ms, "ms",
                "wire p50 - in-process p50, same reads"});
  const double frames = c.frames_in;
  const double perr =
      w->net_server() ? double(w->net_server()->stats().protocol_errors) : 0;
  ms.push_back({"net.frames_in", frames, "count", "reference-rate phase"});
  ms.push_back({"net.protocol_errors", perr, "count", ""});

  ms.push_back({"bench.gen_lag_ms", percentile(traced.reads.lag_ms, 99), "ms",
                "p99 over " + std::to_string(traced.reads.lag_ms.size())});
  const double h0 = headline(*w, plain), h1 = headline(*w, traced);
  ms.push_back({"bench.trace_overhead", h0 > 0 ? (h1 - h0) / h0 : 0, "frac",
                std::string(is_solve(*w) ? "solve_s" : "p50_ms") +
                    " traced vs untraced"});

  // Blocking-path attribution: the solve phase on solve, each request on
  // the serving paths; only layer spans count as covered.
  const double cov = layer_coverage(spans, is_solve(*w) ? "bench.solve_phase"
                                                        : "bench.request");
  ms.push_back({"bench.blocking_coverage", cov, "frac",
                "layer self times / wall along the blocking path"});
  const bool checked = &w->spec() != &kWireChurn;
  if (checked && !(cov >= 0.9 && cov <= 1.1)) {
    std::cerr << "blocking-path self times cover " << cov
              << " of wall time, outside 0.9..1.1\n";
    rep.correct = false;
  }

  std::cout << "self time by span (s):\n";
  for (const auto& [name, s] : self_seconds_by_name(spans))
    std::cout << "  " << name << ' ' << s << '\n';
  const std::filesystem::path dir = ".bench_build";
  std::filesystem::create_directories(dir);
  const auto file = dir / ("trace-" + cfg.workload + ".tsv");
  std::ofstream out(file);
  tracer().write_tsv(out);
  std::cout << "spans: " << spans.size() << " written to " << file.string()
            << '\n';

  rep.attempted = checks().attempted();
  rep.failed = checks().failed();
  rep.correct = rep.correct && rep.failed == 0 && rep.attempted > 0;
  return rep;
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kSolve.name, kServeHot.name,
                                                 kWireChurn.name};
  return names;
}

RunReport run_workload(const RunConfig& cfg) {
  if (std::find(workload_names().begin(), workload_names().end(),
                cfg.workload) == workload_names().end())
    throw std::runtime_error("unknown workload " + cfg.workload);
  return cfg.trace ? run_traced(cfg) : run_end_to_end(cfg);
}

void run_setup_only(const RunConfig& cfg) {
  const std::unique_ptr<Workload> w = make_workload(cfg, false);
  std::cout << kSetupReady << now_ns() << std::endl;
}

} // namespace perfbench
