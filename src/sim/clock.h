// Simulated time.
//
// The paper: "the security of Kerberos depends critically on synchronized
// clocks." This module makes clock relationships a first-class, controllable
// part of every experiment. A single SimClock carries simulation time; each
// host observes it through a HostClock with its own offset (skew). Attacks
// on time synchronization (experiment E3) work by corrupting a host's
// offset through the time services in src/sim/timeservice.h.
//
// Times are microseconds (the resolution Draft 3 was moving to, per the
// paper's KRB_SAFE discussion). They are simulation time, never wall time.

#ifndef SRC_SIM_CLOCK_H_
#define SRC_SIM_CLOCK_H_

#include <cstdint>

namespace ksim {

using Time = int64_t;      // microseconds since simulation epoch
using Duration = int64_t;  // microseconds

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;

// The Kerberos default tolerance for authenticator freshness: the paper's
// "typically five minutes" window.
constexpr Duration kDefaultClockSkewLimit = 5 * kMinute;

// True while `now` is before start + length: the freshness test of a
// cached credential. A window whose end overflows counts as closed, the
// rule Ticket4/Ticket5::Expired apply to tickets — a corrupted reply that
// still decodes can carry times near the int64 limit.
inline bool BeforeEnd(Time now, Time start, Duration length) {
  Time end = 0;
  return !__builtin_add_overflow(start, length, &end) && now < end;
}

// The single source of simulation time. Owned by the World; advanced
// explicitly by scenarios.
class SimClock {
 public:
  Time Now() const { return now_; }
  void Advance(Duration dt) { now_ += dt; }
  void Set(Time t) { now_ = t; }

 private:
  Time now_ = 0;
};

// A host's possibly-skewed view of time.
class HostClock {
 public:
  explicit HostClock(const SimClock* base, Duration offset = 0) : base_(base), offset_(offset) {}

  Time Now() const { return base_->Now() + offset_; }
  Duration offset() const { return offset_; }
  void SetOffset(Duration offset) { offset_ = offset; }
  // Slews the clock so that Now() == t — what a time-sync client does after
  // querying a time service (authenticated or not).
  void AdjustTo(Time t) { offset_ = t - base_->Now(); }

 private:
  const SimClock* base_;
  Duration offset_;
};

}  // namespace ksim

#endif  // SRC_SIM_CLOCK_H_
