#include "src/obs/tracer.h"

namespace dsa {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kPageFault:
      return "page-fault";
    case EventKind::kSegmentFault:
      return "segment-fault";
    case EventKind::kTransferStart:
      return "transfer-start";
    case EventKind::kTransferComplete:
      return "transfer-complete";
    case EventKind::kVictimChosen:
      return "victim-chosen";
    case EventKind::kFrameLoad:
      return "frame-load";
    case EventKind::kFrameEvict:
      return "frame-evict";
    case EventKind::kFrameRetire:
      return "frame-retire";
    case EventKind::kPageDemoted:
      return "page-demoted";
    case EventKind::kAlloc:
      return "alloc";
    case EventKind::kFree:
      return "free";
    case EventKind::kCompaction:
      return "compaction";
    case EventKind::kFaultRecovery:
      return "fault-recovery";
    case EventKind::kScheduleSwitch:
      return "schedule-switch";
    case EventKind::kJobDeactivate:
      return "job-deactivate";
    case EventKind::kJobReactivate:
      return "job-reactivate";
    case EventKind::kLoadControl:
      return "load-control";
    case EventKind::kSizeClassMiss:
      return "size-class-miss";
    case EventKind::kDeferredCoalesce:
      return "deferred-coalesce";
    case EventKind::kServiceDegraded:
      return "service-degraded";
    case EventKind::kServiceRecovered:
      return "service-recovered";
  }
  return "?";
}

namespace {

constexpr EventKind kAllKinds[] = {
    EventKind::kPageFault,     EventKind::kSegmentFault,    EventKind::kTransferStart,
    EventKind::kTransferComplete, EventKind::kVictimChosen, EventKind::kFrameLoad,
    EventKind::kFrameEvict,    EventKind::kFrameRetire,     EventKind::kPageDemoted,
    EventKind::kAlloc,         EventKind::kFree,            EventKind::kCompaction,
    EventKind::kFaultRecovery, EventKind::kScheduleSwitch,  EventKind::kJobDeactivate,
    EventKind::kJobReactivate, EventKind::kLoadControl,  EventKind::kSizeClassMiss,
    EventKind::kDeferredCoalesce, EventKind::kServiceDegraded, EventKind::kServiceRecovered,
};

bool Equals(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

}  // namespace

bool EventKindFromString(const char* name, EventKind* out) {
  for (const EventKind kind : kAllKinds) {
    if (Equals(name, ToString(kind))) {
      *out = kind;
      return true;
    }
  }
  return false;
}

EventFieldNames FieldNamesFor(EventKind kind) {
  switch (kind) {
    case EventKind::kPageFault:
      return {"page", nullptr, nullptr};
    case EventKind::kSegmentFault:
      return {"segment", "extent", nullptr};
    case EventKind::kTransferStart:
      return {"page", "level", "dir"};
    case EventKind::kTransferComplete:
      return {"page", "level", "wait"};
    case EventKind::kVictimChosen:
    case EventKind::kFrameLoad:
    case EventKind::kFrameEvict:
      return {"page", "frame", nullptr};
    case EventKind::kFrameRetire:
      return {"frame", nullptr, nullptr};
    case EventKind::kPageDemoted:
      return {"page", "level", nullptr};
    case EventKind::kAlloc:
    case EventKind::kFree:
      return {"addr", "size", nullptr};
    case EventKind::kCompaction:
      return {"moved", "words", nullptr};
    case EventKind::kFaultRecovery:
      return {"page", "action", nullptr};
    case EventKind::kScheduleSwitch:
      return {"from", "to", nullptr};
    case EventKind::kJobDeactivate:
      return {"job", "frames", nullptr};
    case EventKind::kJobReactivate:
      return {"job", nullptr, nullptr};
    case EventKind::kLoadControl:
      return {"decision", "job", "fault_ppm"};
    case EventKind::kSizeClassMiss:
      return {"class", "size", nullptr};
    case EventKind::kDeferredCoalesce:
      return {"drained", "words", "merges"};
    case EventKind::kServiceDegraded:
      return {"giveups", "commits", nullptr};
    case EventKind::kServiceRecovered:
      return {"cycles", "commits", nullptr};
  }
  return {nullptr, nullptr, nullptr};
}

void EventTracer::Emit(EventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  if (!enabled_) {
    return;
  }
  const TraceEvent event{now_, kind, a, b, c};
  ++emitted_;
  if (sink_) {
    sink_(event);
  }
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Ring is full: overwrite the oldest record.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> EventTracer::Snapshot() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  ForEach([&events](const TraceEvent& event) { events.push_back(event); });
  return events;
}

}  // namespace dsa
