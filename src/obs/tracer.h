// The ring-buffered event tracer.
//
// One EventTracer is shared by every component of a system under
// observation (pager, frame table, allocator, scheduler).  The engine
// drivers advance the tracer's clock to the simulated time of the reference
// being executed; components then emit time-free records which the tracer
// stamps.  Because drivers only ever move their clocks forward, a captured
// stream is monotone by construction — the first invariant the
// TraceReplayVerifier checks.
//
// Storage is a fixed-capacity ring (capacity 0 = unbounded, for golden
// captures): when full, the oldest record is overwritten and counted in
// dropped().  A sink callback, when attached, sees every event at emission
// time regardless of ring capacity, so streams longer than memory can be
// exported incrementally.

#ifndef SRC_OBS_TRACER_H_
#define SRC_OBS_TRACER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/event.h"

namespace dsa {

class EventTracer {
 public:
  using Sink = std::function<void(const TraceEvent&)>;

  static constexpr std::size_t kDefaultCapacity = 1u << 14;

  // `capacity` bounds the retained ring; 0 retains everything.
  explicit EventTracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    if (capacity_ != 0) {
      ring_.reserve(capacity_);
    }
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Forwarded every event at emission time (may be empty).
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  // Moves the stamp clock forward to `now`; never backwards, so interleaved
  // emitters (multiprogrammed jobs) cannot produce a non-monotone stream.
  void AdvanceClock(Cycles now) {
    if (now > now_) {
      now_ = now;
    }
  }
  Cycles now() const { return now_; }

  void Emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);

  // All retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  // Calls `visit` on each retained event, oldest first, without copying.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (std::size_t i = head_; i < ring_.size(); ++i) {
      visit(ring_[i]);
    }
    for (std::size_t i = 0; i < head_; ++i) {
      visit(ring_[i]);
    }
  }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }

  // Forgets retained events and counters; the clock keeps its watermark.
  void Clear() {
    ring_.clear();
    head_ = 0;
    emitted_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  bool enabled_{true};
  Cycles now_{0};
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  // index of the oldest element once the ring wrapped
  std::uint64_t emitted_{0};
  std::uint64_t dropped_{0};
  Sink sink_;
};

}  // namespace dsa

#endif  // SRC_OBS_TRACER_H_
