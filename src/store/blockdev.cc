#include "src/store/blockdev.h"

#include <cassert>

#include "src/obs/kobs.h"

namespace kstore {

namespace {

// Operation tags folded into the device digest.
constexpr uint64_t kOpAppend = 1;
constexpr uint64_t kOpWriteAtomic = 2;
constexpr uint64_t kOpFlush = 3;
constexpr uint64_t kOpFlushLost = 4;
constexpr uint64_t kOpCrash = 5;
constexpr uint64_t kOpTear = 6;

}  // namespace

bool SimDevice::Chance(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  // 53-bit draw, same discipline as FaultyNetwork::Chance.
  const double draw =
      static_cast<double>(prng_.NextU64() >> 11) / static_cast<double>(1ull << 53);
  return draw < p;
}

void SimDevice::Fold(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xff;
    digest_ *= 0x100000001b3ull;
  }
}

void SimDevice::FoldName(const std::string& name) {
  for (unsigned char c : name) {
    digest_ ^= c;
    digest_ *= 0x100000001b3ull;
  }
}

void SimDevice::Append(const std::string& file, kerb::BytesView data) {
  FileState& state = files_[file];
  assert(!state.staged.has_value() && "Append while a WriteAtomic is staged");
  kerb::Append(state.tail, data);
  Fold(kOpAppend);
  FoldName(file);
  Fold(data.size());
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevWrite, data.size());
}

void SimDevice::WriteAtomic(const std::string& file, kerb::Bytes data) {
  FileState& state = files_[file];
  // A staged replacement subsumes any volatile tail: the caller is
  // replacing the whole file.
  const size_t size = data.size();
  state.tail.clear();
  state.staged = std::move(data);
  Fold(kOpWriteAtomic);
  FoldName(file);
  Fold(size);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevWrite, size);
}

void SimDevice::Flush(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  FileState& state = it->second;
  size_t hardened = 0;
  // A flushed rename is a barrier: it either already happened or the crash
  // reverts it wholesale. The lost-flush fault models a lying append-path
  // cache, so it applies only to tail hardening — otherwise a silently
  // failed snapshot install could strand a truncated WAL with no
  // recoverable base, which is not a failure mode rename-based stores have.
  if (state.staged.has_value()) {
    hardened += state.staged->size();
    state.durable = std::move(*state.staged);
    state.staged.reset();
  }
  if (!state.tail.empty() && Chance(plan_.lost_flush)) {
    ++flushes_lost_;
    Fold(kOpFlushLost);
    FoldName(file);
  } else {
    hardened += state.tail.size();
    kerb::Append(state.durable, state.tail);
    state.tail.clear();
  }
  Fold(kOpFlush);
  FoldName(file);
  Fold(hardened);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreDevFlush, hardened);
}

kerb::Bytes SimDevice::ReadAll(const std::string& file) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return {};
  }
  const FileState& state = it->second;
  kerb::Bytes out = state.staged.has_value() ? *state.staged : state.durable;
  kerb::Append(out, state.tail);
  return out;
}

kerb::BytesView SimDevice::DurableView(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? kerb::BytesView() : kerb::BytesView(it->second.durable);
}

size_t SimDevice::size(const std::string& file) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return 0;
  }
  const FileState& state = it->second;
  return (state.staged.has_value() ? state.staged->size() : state.durable.size()) +
         state.tail.size();
}

size_t SimDevice::durable_size(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.durable.size();
}

void SimDevice::Crash() {
  uint64_t files_affected = 0;
  uint64_t bytes_lost = 0;
  Fold(kOpCrash);
  for (auto& [name, state] : files_) {
    if (state.staged.has_value()) {
      // The rename never happened: old content survives intact.
      bytes_lost += state.staged->size();
      state.staged.reset();
      ++files_affected;
    }
    if (!state.tail.empty()) {
      ++files_affected;
      if (Chance(plan_.torn_tail)) {
        // A prefix of the in-flight append made it to the platter.
        const size_t keep = static_cast<size_t>(prng_.NextBelow(state.tail.size()));
        ++tails_torn_;
        Fold(kOpTear);
        FoldName(name);
        Fold(keep);
        bytes_lost += state.tail.size() - keep;
        state.tail.resize(keep);
        kerb::Append(state.durable, state.tail);
      } else {
        bytes_lost += state.tail.size();
      }
      state.tail.clear();
    }
  }
  Fold(files_affected);
  Fold(bytes_lost);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreCrash, files_affected, bytes_lost);
}

}  // namespace kstore
