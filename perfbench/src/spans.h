// Wall-clock spans recorded from outside the library.
//
// A traced run records one span per call into a layer, from three places:
// the workload's own calls (SpanScope around HandleAs, SealTlv, Propagate,
// ...), a pass-through ksim::Adversary that opens a span when the sim
// network delivers a request and closes it when the reply comes back, and
// a wrapped KdcHandler. Spans stay in memory (one vector per thread) and
// are written out when the run ends. A layer's self time is its span minus
// the time covered by its direct child spans; children of one span never
// overlap because each thread is a closed loop.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/sim/network.h"

namespace perfbench {

enum class Layer : uint8_t {
  // Root spans: one per user-level op.
  kSession5Op,
  kSession4Op,
  kAdminOp,
  kAsOp,
  kTgsOp,
  kPkLoginOp,
  // Server side, as seen across the sim network or around a direct call.
  kKrb5KdcAs,
  kKrb5KdcTgs,
  kKrb5AppAp,
  kKrb4KdcAs,
  kKrb4KdcTgs,
  kKrb4AppAp,
  kKrb4KdcPkAs,
  kKadmin,
  kKprop,
  // Client-side library calls the workload makes itself.
  kEncode,
  kDecode,
  kSeal,
  kUnseal,
  kPropagate,
  kCompact,
  kCount
};
constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer l);

struct Span {
  Layer layer;
  uint32_t parent;  // index into the same thread's spans; kNoParent for roots
  uint64_t op;      // op id: (thread << 40) | op index within the thread
  int64_t start_ns;
  int64_t end_ns;
};
constexpr uint32_t kNoParent = 0xffffffffu;

// One thread's span recorder.
class Tracer {
 public:
  explicit Tracer(unsigned thread) : thread_(thread) {}

  // Starts the next op: later spans carry its id.
  void BeginOp() { op_ = (static_cast<uint64_t>(thread_) << 40) | next_op_++; }

  uint32_t Open(Layer layer);
  // Closes span `idx` and any span opened inside it that is still open (a
  // request the network failed never sees its reply).
  void Close(uint32_t idx);
  // Closes the innermost open span of `layer`, if any.
  void CloseInnermost(Layer layer);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  unsigned thread_;
  uint64_t next_op_ = 0;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// RAII span around a call; does nothing when the tracer is null, so the
// measured runs pay one branch per call site.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer)
      : tracer_(tracer), idx_(tracer != nullptr ? tracer->Open(layer) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close(idx_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t idx_;
};

// Pass-through adversary: never drops, rewrites or fabricates. It names
// each request's span by destination port.
class NetSpanAdversary : public ksim::Adversary {
 public:
  // `v5` picks the krb5 or krb4 span names for the KDC and app ports.
  NetSpanAdversary(Tracer* tracer, bool v5) : tracer_(tracer), v5_(v5) {}

  Decision OnRequest(ksim::Message& request) override;
  bool OnReply(const ksim::Message& request, kerb::Bytes& reply) override;

 private:
  Layer LayerFor(const ksim::NetAddress& dst) const;

  Tracer* tracer_;
  bool v5_;
};

// Per-layer totals over every thread's spans.
struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanUs() const { return count == 0 ? 0.0 : total_ns / 1e3 / count; }
  double MeanSelfUs() const { return count == 0 ? 0.0 : self_ns / 1e3 / count; }
};
std::vector<LayerTotals> Aggregate(const std::vector<const Tracer*>& tracers);

// Writes every span as one CSV row: layer,thread_span_index,parent,op,start_ns,end_ns.
void WriteSpans(const std::vector<const Tracer*>& tracers, std::ostream& os);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
