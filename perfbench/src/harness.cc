#include "perfbench/src/harness.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kSession:
      return "session";
    case OpClass::kAs:
      return "as";
    case OpClass::kTgs:
      return "tgs";
    case OpClass::kAdmin:
      return "admin";
    case OpClass::kPkLogin:
      return "pk_login";
    case OpClass::kCount:
      break;
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"session_v5", &MakeSessionV5, 20000, 31},
      {"kdc_mt_1m", &MakeKdcMt1m, 15000, 5},
      {"admin_churn_v4", &MakeAdminChurnV4, 16000, 21},
      {"pk_login_mt", &MakePkLoginMt, 600, 101},
  };
  return specs;
}

namespace {

// The CPUs this process may run on.
std::vector<int> AllowedCpus(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace

void Loop::Move(int64_t now) {
  const int64_t window = (now - origin_ns_) / window_ns_;
  next_move_ns_ = origin_ns_ + (window + 1) * window_ns_;
  if (cpus_ == nullptr || cpus_->size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((*cpus_)[static_cast<size_t>(thread_ + static_cast<uint64_t>(window)) % cpus_->size()],
          &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: a refusal only skips the move
}

LoopResult RunLoop(Workload& w, double seconds, double window_s, uint64_t max_ops,
                   const std::vector<Tracer*>& tracers) {
  const unsigned n = w.threads();
  LoopResult result;
  result.threads.resize(n);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool rotate = max_ops == 0 && sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
  const std::vector<int> cpus = rotate ? AllowedCpus(allowed) : std::vector<int>{};

  // All threads start on one signal, so the deadline is shared and no
  // thread runs alone while the others are still being created.
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> deadline{0};
  auto body = [&](unsigned t) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ThreadStats& stats = result.threads[t];
    const int64_t deadline_ns = deadline.load(std::memory_order_relaxed);
    const int64_t origin_ns = deadline_ns - static_cast<int64_t>(seconds * 1e9);
    if (max_ops != 0) {
      stats.Reset(0, INT64_MAX, 1);
    } else {
      const auto windows = static_cast<size_t>(std::max(1.0, std::round(seconds / window_s)));
      stats.Reset(origin_ns, static_cast<int64_t>(window_s * 1e9), windows);
    }
    Loop loop = max_ops != 0 ? Loop(max_ops)
                             : Loop(origin_ns, static_cast<int64_t>(window_s * 1e9), deadline_ns,
                                    t, &cpus);
    stats.start_ns = NowNs();
    w.RunThread(t, loop, stats, tracers.empty() ? nullptr : tracers[t]);
    stats.end_ns = NowNs();
    if (rotate) {
      // The single-thread body runs on the caller's thread: give it back
      // every CPU, or threads it creates later would inherit one.
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
  };

  auto launch = [&] {
    deadline.store(NowNs() + static_cast<int64_t>(seconds * 1e9), std::memory_order_relaxed);
    go.store(true, std::memory_order_release);
  };
  if (n == 1) {
    launch();
    body(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
      pool.emplace_back(body, t);
    }
    while (ready.load() < n) {
      std::this_thread::yield();
    }
    launch();
    for (auto& th : pool) {
      th.join();
    }
  }

  int64_t first_start = result.threads.front().start_ns;
  int64_t last_end = 0;
  for (const ThreadStats& s : result.threads) {
    first_start = std::min(first_start, s.start_ns);
    last_end = std::max(last_end, s.end_ns);
    result.attempted += s.attempted;
    result.failed += s.failed;
    if (result.first_failure.empty() && !s.first_failure.empty()) {
      result.first_failure = s.first_failure;
    }
  }
  result.wall_s = static_cast<double>(last_end - first_start) / 1e9;
  return result;
}

namespace {

Percentiles PercentilesOf(std::vector<uint32_t> all) {
  Percentiles p;
  p.samples = all.size();
  if (all.empty()) {
    return p;
  }
  p.p50_us = Quantile(all, 0.50) / 1e3;
  // Kept only with at least ten samples beyond the 99th percentile.
  const auto r99 = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(all.size())));
  if (all.size() - r99 >= 10) {
    p.p99_us = Quantile(std::move(all), 0.99) / 1e3;
  }
  return p;
}

}  // namespace

double WindowOpsPerSecond(const LoopResult& r, double window_s) {
  std::vector<uint64_t> totals;
  for (const ThreadStats& s : r.threads) {
    totals.resize(std::max(totals.size(), s.windows().size()));
    for (size_t i = 0; i < s.windows().size(); ++i) {
      totals[i] += s.windows()[i].verified;
    }
  }
  return totals.empty() ? 0.0
                        : static_cast<double>(Quantile(std::move(totals), 0.5)) / window_s;
}

double RunOpsPerSecond(const LoopResult& r) {
  return r.wall_s == 0 ? 0.0 : static_cast<double>(r.attempted - r.failed) / r.wall_s;
}

Percentiles Latency(const LoopResult& r, OpClass c) {
  // Chunks of consecutive windows, each window's samples taken from every
  // thread; a short last chunk is merged into the one before it.
  const size_t k = static_cast<size_t>(c);
  size_t windows = 0;
  for (const ThreadStats& s : r.threads) {
    windows = std::max(windows, s.windows().size());
  }
  std::vector<double> p99s;
  std::vector<uint32_t> chunk;
  std::vector<uint32_t> last;  // the previous full chunk's samples
  for (size_t i = 0; i < windows; ++i) {
    for (const ThreadStats& s : r.threads) {
      if (i < s.windows().size()) {
        const auto& v = s.windows()[i].latency_ns[k];
        chunk.insert(chunk.end(), v.begin(), v.end());
      }
    }
    if (chunk.size() >= kP99Samples) {
      p99s.push_back(*PercentilesOf(chunk).p99_us);
      last.swap(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty() && !last.empty()) {
    chunk.insert(chunk.end(), last.begin(), last.end());
    p99s.back() = *PercentilesOf(std::move(chunk)).p99_us;
  }
  Percentiles out = RunLatency(r, c);
  out.p99_us.reset();
  if (!p99s.empty()) {
    out.p99_us = Quantile(std::move(p99s), kQuietTenth);
  }
  return out;
}

Percentiles RunLatency(const LoopResult& r, OpClass c) {
  std::vector<uint32_t> all;
  for (const ThreadStats& s : r.threads) {
    for (const Window& w : s.windows()) {
      const auto& v = w.latency_ns[static_cast<size_t>(c)];
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  return PercentilesOf(std::move(all));
}

uint64_t TotalSamples(const LoopResult& r, OpClass c) {
  uint64_t n = 0;
  for (const ThreadStats& s : r.threads) {
    for (const Window& w : s.windows()) {
      n += w.latency_ns[static_cast<size_t>(c)].size();
    }
  }
  return n;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over exec, so
  // it would report the launching process's peak when that one is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

uint64_t SubSeed(uint64_t seed, uint64_t domain) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
