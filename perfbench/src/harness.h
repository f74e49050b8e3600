// Closed-loop runner shared by every workload.
//
// A workload is a fixture (built and timed as set-up) plus one op loop per
// client thread. Each thread sends its next request only after the previous
// reply came back and was verified, so a slower KDC receives less load. The
// loop runs either until a wall-clock deadline (measured runs) or for a
// fixed number of ops per thread (traced runs, so two traced runs of one
// seed see exactly the same op sequence).

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// The op types whose latencies are reported separately: a median over two
// op types has two modes and moves between them from run to run.
enum class OpClass : uint8_t { kSession, kAs, kTgs, kAdmin, kPkLogin, kCount };
constexpr size_t kOpClasses = static_cast<size_t>(OpClass::kCount);
const char* OpClassName(OpClass c);

// Latencies of the verified ops that completed in one window of the run.
struct Window {
  uint64_t verified = 0;
  std::array<std::vector<uint32_t>, kOpClasses> latency_ns;
};

// One thread's tallies. Latencies are wall-clock nanoseconds, saturated at
// 2^32 - 1 (4.3 s), which no verified op comes near. Each op lands in the
// window in which it completed.
class ThreadStats {
 public:
  // `windows` windows of `window_ns` each, the first starting at origin_ns.
  void Reset(int64_t origin_ns, int64_t window_ns, size_t windows) {
    origin_ns_ = origin_ns;
    window_ns_ = window_ns;
    windows_.assign(windows, Window{});
  }

  // Records one latency of the op in progress; kept only if it verifies.
  void Add(OpClass c, int64_t ns) {
    if (pending_count_ < pending_.size()) {
      pending_[pending_count_++] = {c, ns < 0                ? 0u
                                       : ns > 0xffffffffll ? 0xffffffffu
                                                           : static_cast<uint32_t>(ns)};
    }
  }

  // Ends one user-level op; `why` is kept for the first failure only.
  void Finish(bool ok, const std::string& why = {}) {
    ++attempted;
    if (ok) {
      const int64_t idx = (NowNs() - origin_ns_) / window_ns_;
      Window& w = windows_[static_cast<size_t>(
          std::clamp<int64_t>(idx, 0, static_cast<int64_t>(windows_.size()) - 1))];
      ++w.verified;
      for (size_t i = 0; i < pending_count_; ++i) {
        w.latency_ns[static_cast<size_t>(pending_[i].first)].push_back(pending_[i].second);
      }
    } else {
      if (failed == 0) {
        first_failure = why;
      }
      ++failed;
    }
    pending_count_ = 0;
  }

  const std::vector<Window>& windows() const { return windows_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string first_failure;

 private:
  int64_t origin_ns_ = 0;
  int64_t window_ns_ = 1;
  std::vector<Window> windows_;
  std::array<std::pair<OpClass, uint32_t>, 4> pending_{};
  size_t pending_count_ = 0;
};

// When a thread's loop stops: at a deadline, or after a fixed op count.
//
// A timed loop also moves its thread to the next CPU of `cpus` at every
// window boundary (thread t runs window i on cpus[(t + i) % size]). Other
// tenants of a shared host slow single vCPUs down for seconds at a time;
// rotating puts every thread on every vCPU in turn, so no one slowed vCPU
// decides a whole run.
class Loop {
 public:
  explicit Loop(uint64_t max_ops) : max_ops_(max_ops) {}
  Loop(int64_t origin_ns, int64_t window_ns, int64_t deadline_ns, unsigned thread,
       const std::vector<int>* cpus)
      : origin_ns_(origin_ns),
        window_ns_(window_ns),
        deadline_ns_(deadline_ns),
        thread_(thread),
        cpus_(cpus) {}

  // True while the thread should issue another op.
  bool Next() {
    if (max_ops_ != 0) {
      return done_++ < max_ops_;
    }
    const int64_t now = NowNs();
    if (now >= next_move_ns_) {
      Move(now);
    }
    return now < deadline_ns_;
  }

 private:
  void Move(int64_t now);

  int64_t origin_ns_ = 0;
  int64_t window_ns_ = 1;
  int64_t deadline_ns_ = 0;
  unsigned thread_ = 0;
  const std::vector<int>* cpus_ = nullptr;
  int64_t next_move_ns_ = 0;
  uint64_t max_ops_ = 0;
  uint64_t done_ = 0;
};

// A built fixture. Construction is the set-up the benchmark times.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual unsigned threads() const = 0;
  // Which op type is the workload's headline op (reported as op_p50_us).
  virtual OpClass headline() const = 0;

  // Runs thread `t`'s closed loop. `tracer` is null in measured runs; in
  // traced runs it is that thread's span recorder.
  virtual void RunThread(unsigned t, Loop& loop, ThreadStats& stats, Tracer* tracer) = 0;

  // Single-threaded workloads route their traffic through a sim network;
  // a traced run installs a pass-through span adversary on it here.
  virtual void AttachNetworkTracer(Tracer* tracer) { (void)tracer; }

  // Checks made after every thread has stopped (e.g. replica convergence).
  // Returns the number of failed checks and describes the first in `why`.
  virtual uint64_t FinalCheck(std::string* why) {
    (void)why;
    return 0;
  }

  // True once AttachNetworkTracer has installed an adversary.
  virtual bool network_traced() const { return false; }

  // Operator password changes made so far; the write-path metrics are
  // per change.
  virtual uint64_t admin_changes() const { return 0; }
};

struct WorkloadSpec {
  const char* name;
  // Builds the fixture for `seed`, generating every input before timing.
  std::unique_ptr<Workload> (*make)(uint64_t seed);
  // Ops per thread in the warm-up and in each fixed-count (traced) run.
  uint64_t traced_ops_per_thread;
  // Fixtures built per measured run; setup_s is their median.
  int setups;
};

const std::vector<WorkloadSpec>& Workloads();

std::unique_ptr<Workload> MakeSessionV5(uint64_t seed);
std::unique_ptr<Workload> MakeKdcMt1m(uint64_t seed);
std::unique_ptr<Workload> MakeAdminChurnV4(uint64_t seed);
std::unique_ptr<Workload> MakePkLoginMt(uint64_t seed);

// Result of driving a workload's threads once.
struct LoopResult {
  std::vector<ThreadStats> threads;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

// Starts all threads together and joins them. `max_ops` = 0 means run for
// `seconds`, cut into windows of `window_s`; otherwise each thread runs
// exactly `max_ops` ops, all in one window. `tracers` is empty or holds one
// tracer per thread.
LoopResult RunLoop(Workload& w, double seconds, double window_s, uint64_t max_ops,
                   const std::vector<Tracer*>& tracers);

// Nearest-rank percentiles in µs.
struct Percentiles {
  size_t samples = 0;
  double p50_us = 0;
  // Empty when fewer than ten samples lie beyond the 99th percentile.
  std::optional<double> p99_us;
};

// The end-to-end estimators. Other tenants of a shared host slow single
// vCPUs, or the whole machine, down by up to 2x for seconds to minutes at
// a time. Throughput and medians are therefore read as medians over the
// run, which a stall in a minority of it does not move; only the p99 reads
// the run's quieter part, because one burst of host noise can fill the
// whole-run tail. The whole-run throughput and p99 are per-layer metrics.
//
// The median of the per-window totals of verified ops, per second.
// Windows are aligned in time across threads (they share one origin), so
// a window's total is what the program did in that quarter second, and a
// stall that recurs in half the windows or more lowers it.
double WindowOpsPerSecond(const LoopResult& r, double window_s);
// Verified ops per wall second over the whole run.
double RunOpsPerSecond(const LoopResult& r);
// The p50 of every sample of op class `c` in the run, and the 10th
// percentile of the p99s of the run's chunks: consecutive windows, with
// every thread's samples of the class, until a chunk holds at least
// kP99Samples (ten beyond its p99). A chunk is short in time, so the
// quiet stretches between bursts of host noise yield whole chunks.
// `samples` is the run's sample count.
constexpr double kQuietTenth = 0.1;
constexpr size_t kP99Samples = 1000;
Percentiles Latency(const LoopResult& r, OpClass c);
// p50 and p99 of every sample of op class `c` in the run.
Percentiles RunLatency(const LoopResult& r, OpClass c);
// Nearest-rank quantile `q` of a non-empty sample.
template <typename T>
T Quantile(std::vector<T> v, double q) {
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}
// Verified ops of one class over the whole run.
uint64_t TotalSamples(const LoopResult& r, OpClass c);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// A SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t domain);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
