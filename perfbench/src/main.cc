// perfbench — runs the repository benchmark's workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 is a measured run: the fixture is built several times (setup_s
// is the median), a fixed number of ops warms it up, then every thread runs
// its closed loop for --seconds with no trace and no adversary installed.
// The run is cut into 0.25 s windows, aligned across threads; ops_per_s is
// the median window and each p50 the median of every sample, each p99 reads
// the run's quieter part (see WindowOpsPerSecond and Latency). It prints
// the end-to-end metrics.
//
// --trace 1 prints the per-layer metrics. It makes one untraced run of the
// same length (for the latency split by op type, failures and thread
// balance), then runs the workload's fixed op sequence on fresh fixtures
// with the same seed: twice untraced and twice traced, for the tracing
// overhead. The traced runs record spans from outside the library and kobs
// counts; the two must agree exactly on every kobs count, or the run is
// reported incorrect. Spans of the first traced run are written to
// --spans as CSV.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it are a readable table with sample counts.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "src/obs/kobs.h"

namespace perfbench {
namespace {

// Length of the windows a measured run is cut into.
constexpr double kWindowSeconds = 0.25;

struct Metric {
  std::string name;
  std::optional<double> value;  // empty: missing (too few samples)
  std::string unit;
  std::string note;             // printed in the table only
};

class Report {
 public:
  void Add(std::string name, std::optional<double> value, std::string unit,
           std::string note = {}) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  }

  // A p50/p99 pair with its sample counts beside it.
  void AddLatency(const std::string& prefix, const Percentiles& p) {
    const std::string n = "n=" + std::to_string(p.samples);
    Add(prefix + "_p50_us", p.p50_us, "us", n + "; every sample");
    const std::string chunks = n + "; 10th percentile over chunks of >=" +
                               std::to_string(kP99Samples) + " samples";
    Add(prefix + "_p99_us", p.p99_us, "us",
        p.p99_us.has_value() ? chunks : n + "; missing: fewer than 10 samples beyond p99");
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("%-34s %20s  %-9s %s\n", "metric", "value", "unit", "notes");
    for (const Metric& m : metrics_) {
      std::printf("%-34s %20s  %-9s measured%s%s\n", m.name.c_str(),
                  m.value.has_value() ? Num(*m.value).c_str() : "missing", m.unit.c_str(),
                  m.note.empty() ? "" : "; ", m.note.c_str());
    }
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
              (m.value.has_value() ? Num(*m.value) : std::string("null")) + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// A fixed-count warm-up plus one measured loop on a built fixture, then
// the workload's final checks. The peak RSS is read after the warm-up:
// later it would grow with the number of ops the run managed (server logs,
// latency samples), i.e. with the machine's speed.
struct MeasuredLoop {
  LoopResult result;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  std::string first_failure;
  // Nothing was installed on the kobs trace hook or the network: the loop
  // saw the library exactly as users do.
  bool untraced = false;
};

MeasuredLoop Measure(const WorkloadSpec& spec, Workload& w, double seconds) {
  MeasuredLoop m;
  LoopResult warm = RunLoop(w, 0, kWindowSeconds, spec.traced_ops_per_thread, {});
  m.peak_rss_mb = PeakRssMb();
  m.result = RunLoop(w, seconds, kWindowSeconds, 0, {});
  m.untraced = !kobs::Enabled() && !w.network_traced();
  std::string final_why;
  const uint64_t final_failures = w.FinalCheck(&final_why);
  m.attempted = warm.attempted + m.result.attempted;
  m.failed = warm.failed + m.result.failed + final_failures;
  m.first_failure = !warm.first_failure.empty() ? warm.first_failure
                    : !m.result.first_failure.empty() ? m.result.first_failure
                                                      : final_why;
  return m;
}

int MeasuredRun(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < spec.setups; ++i) {
    w.reset();
    const int64_t t0 = NowNs();
    w = spec.make(seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  MeasuredLoop m = Measure(spec, *w, seconds);

  Report report;
  report.Add("setup_s", Quantile(setup_s, 0.5), "s",
             "median of " + std::to_string(spec.setups) + " fixture builds");
  report.Add("peak_rss_mb", m.peak_rss_mb, "MB", "after set-up and warm-up");
  report.Add("ops_per_s", WindowOpsPerSecond(m.result, kWindowSeconds), "1/s",
             "median of the 0.25 s windows' totals over " + std::to_string(w->threads()) +
                 " closed-loop thread(s); whole run " +
                 std::to_string(RunOpsPerSecond(m.result)) + " (" +
                 std::to_string(m.result.attempted - m.result.failed) + " verified ops in " +
                 std::to_string(m.result.wall_s) + " s)");
  report.AddLatency("as", Latency(m.result, OpClass::kAs));
  report.AddLatency("op", Latency(m.result, w->headline()));
  std::printf("workload %s seed %llu: headline op = %s\n", spec.name,
              static_cast<unsigned long long>(seed), OpClassName(w->headline()));
  if (!m.first_failure.empty()) {
    std::printf("first failure: %s\n", m.first_failure.c_str());
  }
  if (!m.untraced) {
    std::printf("failure: a trace or adversary was installed in the measured run\n");
  }
  report.Print(m.failed == 0 && m.untraced, m.attempted, m.failed);
  return 0;
}

// Every kobs count of a traced run, per kind: events, sum of a, sum of b.
struct KobsTotals {
  std::array<uint64_t, kobs::kEvCount> count{};
  std::array<uint64_t, kobs::kEvCount> sum_a{};
  std::array<uint64_t, kobs::kEvCount> sum_b{};

  uint64_t N(kobs::Ev e) const { return count[static_cast<size_t>(e)]; }
  uint64_t A(kobs::Ev e) const { return sum_a[static_cast<size_t>(e)]; }
  uint64_t B(kobs::Ev e) const { return sum_b[static_cast<size_t>(e)]; }
  bool operator==(const KobsTotals&) const = default;
};

struct FixedLoop {
  LoopResult result;
  KobsTotals kobs;
  std::vector<LayerTotals> layers;
  uint64_t changes = 0;
  uint64_t final_failures = 0;
  std::string final_why;
};

// Builds a fresh fixture and runs the workload's fixed op sequence. When
// `traced`, a kobs trace is installed around it and every thread gets a
// span recorder; spans are written to `spans_path` if it is not empty.
FixedLoop FixedRun(const WorkloadSpec& spec, uint64_t seed, bool traced,
                   const std::string& spans_path) {
  FixedLoop out;
  std::optional<kobs::Trace> trace;
  if (traced) {
    trace.emplace();
    trace->Install();
  }
  std::unique_ptr<Workload> w = spec.make(seed);
  std::vector<std::unique_ptr<Tracer>> owned;
  std::vector<Tracer*> tracers;
  std::vector<const Tracer*> readers;
  if (traced) {
    trace->Clear();  // count the ops, not the fixture's registrations
    for (unsigned t = 0; t < w->threads(); ++t) {
      owned.push_back(std::make_unique<Tracer>(t));
      tracers.push_back(owned.back().get());
      readers.push_back(owned.back().get());
    }
    if (w->threads() == 1) {
      w->AttachNetworkTracer(tracers[0]);
    }
  }
  out.result = RunLoop(*w, 0, kWindowSeconds, spec.traced_ops_per_thread, tracers);

  if (traced) {
    for (const kobs::Event& e : trace->events()) {
      const size_t k = static_cast<size_t>(e.kind);
      ++out.kobs.count[k];
      out.kobs.sum_a[k] += e.a;
      out.kobs.sum_b[k] += e.b;
    }
    out.layers = Aggregate(readers);
    if (!spans_path.empty()) {
      std::ofstream os(spans_path);
      WriteSpans(readers, os);
    }
  }
  out.changes = w->admin_changes();
  out.final_failures = w->FinalCheck(&out.final_why);
  w.reset();  // the World unbinds its clock from the still-installed trace
  return out;
}

int TracedMode(const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& spans_path) {
  // Untraced run of --seconds: the latency split by op type, failures and
  // thread balance.
  MeasuredLoop m;
  unsigned threads = 0;
  OpClass headline = OpClass::kSession;
  {
    std::unique_ptr<Workload> w = spec.make(seed);
    threads = w->threads();
    headline = w->headline();
    m = Measure(spec, *w, seconds);
  }
  // The same fixed op sequence on fresh fixtures: twice untraced (the
  // tracing-overhead baseline) and twice traced. The overhead compares the
  // faster run of each pair, so a burst of host noise in one run does not
  // count as overhead.
  const FixedLoop plain = FixedRun(spec, seed, /*traced=*/false, {});
  const FixedLoop plain2 = FixedRun(spec, seed, /*traced=*/false, {});
  const FixedLoop a = FixedRun(spec, seed, /*traced=*/true, spans_path);
  const FixedLoop b = FixedRun(spec, seed, /*traced=*/true, {});
  // Self-check: the same seed and op sequence must give the same kobs
  // counts (and so the same request/reply bytes) in both traced runs.
  const bool repeatable = a.kobs == b.kobs && a.result.attempted == b.result.attempted;

  uint64_t attempted = m.attempted;
  uint64_t failed = m.failed;
  for (const FixedLoop* f : {&plain, &plain2, &a, &b}) {
    attempted += f->result.attempted;
    failed += f->result.failed + f->final_failures;
  }
  const double ops = static_cast<double>(a.result.attempted);
  const double changes = static_cast<double>(a.changes);
  const KobsTotals& k = a.kobs;
  const auto& L = a.layers;
  auto mean = [&](Layer l) { return L[static_cast<size_t>(l)].MeanUs(); };
  auto self = [&](Layer l) { return L[static_cast<size_t>(l)].MeanSelfUs(); };
  using kobs::Ev;

  Report report;
  // Latency split by op type and failures, from the untraced run.
  for (OpClass c : {OpClass::kSession, OpClass::kTgs, OpClass::kAdmin, OpClass::kPkLogin}) {
    const Percentiles p = Latency(m.result, c);
    const std::string name = OpClassName(c);
    if (p.samples == 0) {
      report.Add(name + "_p50_us", 0.0, "us", "op type not in workload");
      report.Add(name + "_p99_us", 0.0, "us", "op type not in workload");
    } else {
      report.AddLatency(name, p);
    }
    report.Add(name + "_samples", static_cast<double>(p.samples), "count");
  }
  report.Add("as_samples", static_cast<double>(TotalSamples(m.result, OpClass::kAs)), "count");
  report.Add("op_samples", static_cast<double>(TotalSamples(m.result, headline)), "count");
  report.Add("run_ops_per_s", RunOpsPerSecond(m.result), "1/s",
             "verified ops per wall second over the whole untraced run");
  report.Add("run_op_p99_us", RunLatency(m.result, headline).p99_us, "us",
             "every sample of the untraced run");
  report.Add("failed_frac", Ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
             "ratio");
  {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    double sum = 0;
    for (const ThreadStats& s : m.result.threads) {
      lo = std::min(lo, s.attempted);
      hi = std::max(hi, s.attempted);
      sum += static_cast<double>(s.attempted);
    }
    report.Add("load.thread_ops_spread",
               Ratio(static_cast<double>(hi - lo), sum / static_cast<double>(threads)), "ratio",
               std::to_string(threads) + " thread(s)");
  }
  const double untraced_ops_s =
      std::max(RunOpsPerSecond(plain.result), RunOpsPerSecond(plain2.result));
  const double traced_ops_s =
      std::max(RunOpsPerSecond(a.result), RunOpsPerSecond(b.result));
  report.Add("obs.trace_overhead_pct", (1.0 - Ratio(traced_ops_s, untraced_ops_s)) * 100.0, "%",
             "traced " + std::to_string(traced_ops_s) + " vs untraced " +
                 std::to_string(untraced_ops_s) + " ops/s");

  // Span times, µs per call (self time for the client-side remainders).
  report.Add("krb5.kdc.as_us", mean(Layer::kKrb5KdcAs), "us");
  report.Add("krb5.kdc.tgs_us", mean(Layer::kKrb5KdcTgs), "us");
  report.Add("krb5.app.ap_us", mean(Layer::kKrb5AppAp), "us");
  report.Add("krb4.kdc.as_us", mean(Layer::kKrb4KdcAs), "us");
  report.Add("krb4.kdc.tgs_us", mean(Layer::kKrb4KdcTgs), "us");
  report.Add("krb4.app.ap_us", mean(Layer::kKrb4AppAp), "us");
  report.Add("krb4.kdc.pk_as_us", mean(Layer::kKrb4KdcPkAs), "us");
  report.Add("crypto.pk_client_us", self(Layer::kPkLoginOp), "us",
             "PK login op minus the KDC span");
  report.Add("krb5.client.self_us", self(Layer::kSession5Op), "us", "session minus server spans");
  report.Add("krb4.client.self_us", self(Layer::kSession4Op), "us", "session minus server spans");
  report.Add("encoding.encode_us", mean(Layer::kEncode), "us");
  report.Add("encoding.decode_us", mean(Layer::kDecode), "us");
  report.Add("krb5.enclayer.seal_us", mean(Layer::kSeal), "us");
  report.Add("krb5.enclayer.unseal_us", mean(Layer::kUnseal), "us");

  // kobs counts, per op unless the unit says otherwise.
  const uint64_t kdc_requests = k.N(Ev::kKdcAsRequest) + k.N(Ev::kKdcTgsRequest);
  report.Add("encoding.request_bytes",
             Ratio(static_cast<double>(k.B(Ev::kKdcAsRequest) + k.B(Ev::kKdcTgsRequest)),
                   static_cast<double>(kdc_requests)),
             "B/request");
  report.Add("encoding.reply_bytes",
             Ratio(static_cast<double>(k.B(Ev::kKdcIssue)), static_cast<double>(k.N(Ev::kKdcIssue))),
             "B/reply");
  auto hit_ratio = [&](Ev hit, Ev miss) {
    return Ratio(static_cast<double>(k.N(hit)), static_cast<double>(k.N(hit) + k.N(miss)));
  };
  report.Add("krb.kdc.key_cache_hit_ratio", hit_ratio(Ev::kKdcKeyCacheHit, Ev::kKdcKeyCacheMiss),
             "ratio");
  report.Add("krb.kdc.unseal_memo_hit_ratio",
             hit_ratio(Ev::kKdcUnsealMemoHit, Ev::kKdcUnsealMemoMiss), "ratio");
  report.Add("krb.kdc.issue_ratio",
             Ratio(static_cast<double>(k.N(Ev::kKdcIssue)), static_cast<double>(kdc_requests)),
             "ratio");
  report.Add("krb.kdc.reply_cache_hits", static_cast<double>(k.N(Ev::kKdcReplyCacheHit)),
             "count");
  report.Add("sim.xchg.retries", static_cast<double>(k.N(Ev::kXchgRetry)), "count");
  report.Add("crypto.seals", Ratio(static_cast<double>(k.N(Ev::kSeal)), ops), "count/op");
  report.Add("crypto.seal_bytes", Ratio(static_cast<double>(k.A(Ev::kSeal)), ops), "B/op");
  report.Add("crypto.unseals",
             Ratio(static_cast<double>(k.N(Ev::kUnsealOk) + k.N(Ev::kUnsealFail)), ops),
             "count/op");
  report.Add("crypto.unseal_bytes",
             Ratio(static_cast<double>(k.A(Ev::kUnsealOk) + k.A(Ev::kUnsealFail)), ops), "B/op");
  report.Add("sim.net.calls", Ratio(static_cast<double>(k.N(Ev::kNetCall)), ops), "count/op");
  report.Add("sim.replay_cache.admits", Ratio(static_cast<double>(k.N(Ev::kCacheAdmit)), ops),
             "count/op");
  report.Add("sim.replay_cache.pruned", Ratio(static_cast<double>(k.A(Ev::kCachePrune)), ops),
             "count/op");

  // The write path (admin_churn_v4 only; zero elsewhere).
  report.Add("store.wal_appends_per_change",
             Ratio(static_cast<double>(k.N(Ev::kStoreAppend)), changes), "count/change");
  report.Add("store.dev_bytes_per_change",
             Ratio(static_cast<double>(k.A(Ev::kStoreDevWrite)), changes), "B/change");
  report.Add("store.flushes_per_change",
             Ratio(static_cast<double>(k.N(Ev::kStoreDevFlush)), changes), "count/change");
  report.Add("store.kprop_cycle_us", mean(Layer::kPropagate), "us");
  report.Add("store.kprop_bytes_per_cycle",
             Ratio(static_cast<double>(k.B(Ev::kPropShip)), static_cast<double>(L[static_cast<size_t>(Layer::kPropagate)].count)),
             "B/cycle");
  report.Add("store.compact_us", mean(Layer::kCompact), "us");
  report.Add("admin.kadmin_us", mean(Layer::kKadmin), "us");
  report.Add("admin.applies_per_change",
             Ratio(static_cast<double>(k.N(Ev::kAdminApply)), changes), "count/change");
  report.Add("admin.denies", static_cast<double>(k.N(Ev::kAdminDeny)), "count");
  report.Add("krb.kvno_old_key_accepts", static_cast<double>(k.N(Ev::kKvnoOldKeyAccept)),
             "count");

  std::printf("workload %s seed %llu: traced runs of %llu ops per thread; kobs counts %s\n",
              spec.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(spec.traced_ops_per_thread),
              repeatable ? "identical in both traced runs" : "DIFFER between traced runs");
  for (const std::string& why :
       {m.first_failure, plain.result.first_failure, plain.final_why, plain2.result.first_failure,
        plain2.final_why, a.result.first_failure, a.final_why, b.result.first_failure,
        b.final_why}) {
    if (!why.empty()) {
      std::printf("failure: %s\n", why.c_str());
    }
  }
  if (!m.untraced) {
    std::printf("failure: a trace or adversary was installed in the untraced run\n");
  }
  report.Print(failed == 0 && repeatable && m.untraced, attempted, failed);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\nworkloads:");
  for (const WorkloadSpec& s : Workloads()) {
    std::fprintf(stderr, " %s", s.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (workload == spec.name) {
      return trace == 0 ? MeasuredRun(spec, seed, seconds)
                        : TracedMode(spec, seed, seconds, spans_path);
    }
  }
  return Usage();
}
