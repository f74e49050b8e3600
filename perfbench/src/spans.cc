#include "perfbench/src/spans.h"

#include "src/admin/messages.h"
#include "src/store/kprop.h"

namespace perfbench {

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kSession5Op:
      return "op.session5";
    case Layer::kSession4Op:
      return "op.session4";
    case Layer::kAdminOp:
      return "op.admin";
    case Layer::kAsOp:
      return "op.as";
    case Layer::kTgsOp:
      return "op.tgs";
    case Layer::kPkLoginOp:
      return "op.pk_login";
    case Layer::kKrb5KdcAs:
      return "krb5.kdc.as";
    case Layer::kKrb5KdcTgs:
      return "krb5.kdc.tgs";
    case Layer::kKrb5AppAp:
      return "krb5.app.ap";
    case Layer::kKrb4KdcAs:
      return "krb4.kdc.as";
    case Layer::kKrb4KdcTgs:
      return "krb4.kdc.tgs";
    case Layer::kKrb4AppAp:
      return "krb4.app.ap";
    case Layer::kKrb4KdcPkAs:
      return "krb4.kdc.pk_as";
    case Layer::kKadmin:
      return "admin.kadmin";
    case Layer::kKprop:
      return "store.kprop";
    case Layer::kEncode:
      return "encoding.encode";
    case Layer::kDecode:
      return "encoding.decode";
    case Layer::kSeal:
      return "krb5.enclayer.seal";
    case Layer::kUnseal:
      return "krb5.enclayer.unseal";
    case Layer::kPropagate:
      return "store.propagate";
    case Layer::kCompact:
      return "store.compact";
    case Layer::kCount:
      break;
  }
  return "?";
}

uint32_t Tracer::Open(Layer layer) {
  const uint32_t idx = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{layer, open_.empty() ? kNoParent : open_.back(), op_, NowNs(), 0});
  open_.push_back(idx);
  return idx;
}

void Tracer::Close(uint32_t idx) {
  const int64_t now = NowNs();
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = now;
    if (top == idx) {
      return;
    }
  }
}

void Tracer::CloseInnermost(Layer layer) {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (spans_[*it].layer == layer) {
      Close(*it);
      return;
    }
  }
}

Layer NetSpanAdversary::LayerFor(const ksim::NetAddress& dst) const {
  switch (dst.port) {
    case 88:
      return v5_ ? Layer::kKrb5KdcAs : Layer::kKrb4KdcAs;
    case 750:
      return v5_ ? Layer::kKrb5KdcTgs : Layer::kKrb4KdcTgs;
    case kadmin::kAdminPort:
      return Layer::kKadmin;
    case kstore::kPropPort:
      return Layer::kKprop;
    default:
      return v5_ ? Layer::kKrb5AppAp : Layer::kKrb4AppAp;
  }
}

ksim::Adversary::Decision NetSpanAdversary::OnRequest(ksim::Message& request) {
  tracer_->Open(LayerFor(request.dst));
  return {};
}

bool NetSpanAdversary::OnReply(const ksim::Message& request, kerb::Bytes& reply) {
  (void)reply;
  tracer_->CloseInnermost(LayerFor(request.dst));
  return false;
}

std::vector<LayerTotals> Aggregate(const std::vector<const Tracer*>& tracers) {
  std::vector<LayerTotals> totals(kLayers);
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTotals& t = totals[static_cast<size_t>(spans[i].layer)];
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
  }
  return totals;
}

void WriteSpans(const std::vector<const Tracer*>& tracers, std::ostream& os) {
  os << "layer,index,parent,op,start_ns,end_ns\n";
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << LayerName(s.layer) << ',' << i << ',';
      if (s.parent == kNoParent) {
        os << "-1";
      } else {
        os << s.parent;
      }
      os << ',' << s.op << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

}  // namespace perfbench
