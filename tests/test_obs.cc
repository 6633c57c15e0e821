// Unit tests for the observability layer: the ring-buffered EventTracer,
// the JSONL/CSV exporters and parser, the TraceReplayVerifier's violation
// classes, and the MetricsRegistry.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/obs/verifier.h"

namespace dsa {
namespace {

// ---------------------------------------------------------------- tracer --

TEST(EventTracerTest, StampsEventsWithWatermarkClock) {
  EventTracer tracer(/*capacity=*/0);
  tracer.AdvanceClock(10);
  tracer.Emit(EventKind::kPageFault, 1);
  tracer.AdvanceClock(5);  // backwards: ignored
  tracer.Emit(EventKind::kPageFault, 2);
  tracer.AdvanceClock(20);
  tracer.Emit(EventKind::kPageFault, 3);

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 10u);
  EXPECT_EQ(events[1].time, 10u);  // watermark held, not rewound
  EXPECT_EQ(events[2].time, 20u);
  EXPECT_EQ(tracer.now(), 20u);
}

TEST(EventTracerTest, RingOverwritesOldestAndCountsDrops) {
  EventTracer tracer(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.Emit(EventKind::kPageFault, i);
  }
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.size(), 4u);

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: pages 6,7,8,9 survived.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
  }
}

TEST(EventTracerTest, UnboundedCapacityRetainsEverything) {
  EventTracer tracer(/*capacity=*/0);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    tracer.Emit(EventKind::kAlloc, i, 1);
  }
  EXPECT_EQ(tracer.emitted(), 100000u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.Snapshot().size(), 100000u);
}

TEST(EventTracerTest, DisabledTracerEmitsNothing) {
  EventTracer tracer(/*capacity=*/0);
  tracer.set_enabled(false);
  DSA_TRACE_EMIT(&tracer, EventKind::kPageFault, 1);
  EXPECT_EQ(tracer.emitted(), 0u);
  tracer.set_enabled(true);
  DSA_TRACE_EMIT(&tracer, EventKind::kPageFault, 1);
  // With -DDSA_TRACE=0 every emission site (including the one above)
  // compiles out; with tracing built in, the enabled check must hold.
  EXPECT_EQ(tracer.emitted(), DSA_TRACE ? 1u : 0u);
}

TEST(EventTracerTest, EmitMacroToleratesNullTracer) {
  EventTracer* tracer = nullptr;
  DSA_TRACE_EMIT(tracer, EventKind::kPageFault, 1);  // must not crash
  DSA_TRACE_CLOCK(tracer, 99);
}

TEST(EventTracerTest, SinkSeesEveryEventEvenWhenRingDrops) {
  EventTracer tracer(/*capacity=*/2);
  std::vector<TraceEvent> sunk;
  tracer.SetSink([&](const TraceEvent& event) { sunk.push_back(event); });
  for (std::uint64_t i = 0; i < 8; ++i) {
    tracer.Emit(EventKind::kFree, i);
  }
  EXPECT_EQ(sunk.size(), 8u);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(EventTracerTest, ClearForgetsEventsButKeepsClockWatermark) {
  EventTracer tracer(/*capacity=*/4);
  tracer.AdvanceClock(123);
  tracer.Emit(EventKind::kPageFault, 1);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.emitted(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.now(), 123u);  // clock is not part of the ring
  tracer.Emit(EventKind::kPageFault, 2);
  EXPECT_EQ(tracer.Snapshot()[0].time, 123u);
}

// -------------------------------------------------------------- exporters --

TEST(EventExportTest, JsonlUsesPerKindFieldNames) {
  TraceEvent fault{4, EventKind::kPageFault, 9, 0, 0};
  EXPECT_EQ(EventToJson(fault), R"({"t": 4, "kind": "page-fault", "page": 9})");

  TraceEvent start{4, EventKind::kTransferStart, 9, 0, 1};
  EXPECT_EQ(EventToJson(start),
            R"({"t": 4, "kind": "transfer-start", "page": 9, "level": 0, "dir": 1})");

  TraceEvent sched{7, EventKind::kScheduleSwitch, kNoJob, 2, 0};
  EXPECT_EQ(EventToJson(sched),
            R"({"t": 7, "kind": "schedule-switch", "from": 18446744073709551615, "to": 2})");
}

// The snprintf encoder AppendEventJson replaced, kept as its byte oracle.
std::string SnprintfEventJson(const TraceEvent& event) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"t\": %llu, \"kind\": \"%s\"",
                static_cast<unsigned long long>(event.time), ToString(event.kind));
  std::string line = buf;
  const EventFieldNames names = FieldNamesFor(event.kind);
  const std::pair<const char*, std::uint64_t> fields[] = {
      {names.a, event.a}, {names.b, event.b}, {names.c, event.c}};
  for (const auto& [name, value] : fields) {
    if (name != nullptr) {
      std::snprintf(buf, sizeof(buf), ", \"%s\": %llu", name,
                    static_cast<unsigned long long>(value));
      line += buf;
    }
  }
  return line + "}";
}

TEST(EventExportTest, AppendEventJsonMatchesTheSnprintfEncoderForEveryKind) {
  const std::uint64_t top = ~std::uint64_t{0};
  std::vector<TraceEvent> events;
  for (int k = 0; k <= static_cast<int>(EventKind::kServiceRecovered); ++k) {
    const auto kind = static_cast<EventKind>(k);
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, top}) {
      events.push_back({v, kind, v, v, v});
    }
    events.push_back({top, kind, 0, 1, top});
    events.push_back({1, kind, top, 0, 1});
  }
  std::string appended = "prefix";
  std::string expected = "prefix";
  std::string jsonl;
  for (const TraceEvent& event : events) {
    EXPECT_EQ(EventToJson(event), SnprintfEventJson(event));
    AppendEventJson(&appended, event);
    expected += SnprintfEventJson(event);
    jsonl += SnprintfEventJson(event) + "\n";
  }
  EXPECT_EQ(appended, expected);
  EXPECT_EQ(EventsToJsonl(events), jsonl);
  std::ostringstream written;
  WriteEventsJsonl(events, &written);
  EXPECT_EQ(written.str(), jsonl);
}

TEST(EventExportTest, JsonlRoundTripsThroughParser) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kPageFault, 3, 0, 0});
  events.push_back({2, EventKind::kTransferStart, 3, 0, 0});
  events.push_back({9, EventKind::kTransferComplete, 3, 0, 700});
  events.push_back({9, EventKind::kFrameLoad, 3, 1, 0});
  events.push_back({12, EventKind::kAlloc, 4096, 128, 0});
  events.push_back({15, EventKind::kCompaction, 7, 2048, 0});
  events.push_back({20, EventKind::kFaultRecovery, 3,
                    static_cast<std::uint64_t>(RecoveryAction::kRetry), 0});

  const std::string jsonl = EventsToJsonl(events);
  const auto parsed = ParseEventsJsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value(), events);
  // And the re-export is byte-identical: parse/export form a bijection.
  EXPECT_EQ(EventsToJsonl(parsed.value()), jsonl);
}

TEST(EventExportTest, ParserSkipsBlankLinesAndReportsBadOnes) {
  const auto ok = ParseEventsJsonl("\n{\"t\": 1, \"kind\": \"page-fault\", \"page\": 2}\n\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value().size(), 1u);

  const auto bad_kind = ParseEventsJsonl(R"({"t": 1, "kind": "not-a-kind", "page": 2})");
  ASSERT_FALSE(bad_kind.has_value());
  EXPECT_EQ(bad_kind.error().line, 1u);

  const auto garbage = ParseEventsJsonl(
      "{\"t\": 1, \"kind\": \"page-fault\", \"page\": 2}\nnot json\n");
  ASSERT_FALSE(garbage.has_value());
  EXPECT_EQ(garbage.error().line, 2u);
}

TEST(EventExportTest, NumbersPast64BitsAreMalformedNotWrapped) {
  // The largest value the exporter can write parses back exactly.
  const std::uint64_t top = ~std::uint64_t{0};
  const std::vector<TraceEvent> max{{top, EventKind::kPageFault, top, 0, 0}};
  const auto parsed = ParseEventsJsonl(EventsToJsonl(max));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), max);

  for (const char* line : {R"({"t": 18446744073709551616, "kind": "page-fault", "page": 2})",
                           R"({"t": 123456789012345678901, "kind": "page-fault", "page": 2})",
                           R"({"t": 1, "kind": "page-fault", "page": 99999999999999999999})"}) {
    const auto bad = ParseEventsJsonl(line);
    ASSERT_FALSE(bad.has_value()) << line;
    EXPECT_EQ(bad.error().line, 1u);
  }
}

TEST(EventExportTest, CsvHasFixedHeaderAndPositionalSlots) {
  std::vector<TraceEvent> events;
  events.push_back({5, EventKind::kVictimChosen, 11, 3, 0});
  std::ostringstream out;
  WriteEventsCsv(events, &out);
  EXPECT_EQ(out.str(), "t,kind,a,b,c\n5,victim-chosen,11,3,0\n");
}

TEST(EventExportTest, EveryKindHasAStableWireName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kDeferredCoalesce); ++k) {
    const EventKind kind = static_cast<EventKind>(k);
    EventKind back;
    ASSERT_TRUE(EventKindFromString(ToString(kind), &back)) << ToString(kind);
    EXPECT_EQ(back, kind);
  }
  EventKind out;
  EXPECT_FALSE(EventKindFromString("bogus", &out));
}

// --------------------------------------------------------------- verifier --

std::vector<TraceViolation> Verify(const std::vector<TraceEvent>& events,
                                   std::optional<std::size_t> frame_count = std::nullopt) {
  TraceVerifierConfig config;
  config.frame_count = frame_count;
  return TraceReplayVerifier(config).Verify(events);
}

bool HasViolation(const std::vector<TraceViolation>& violations, const std::string& needle) {
  for (const TraceViolation& v : violations) {
    if (v.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(TraceVerifierTest, AcceptsLawfulStream) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kPageFault, 7, 0, 0});
  events.push_back({1, EventKind::kTransferStart, 7, 0, 0});
  events.push_back({1, EventKind::kTransferComplete, 7, 0, 700});
  events.push_back({1, EventKind::kFrameLoad, 7, 0, 0});
  events.push_back({2, EventKind::kVictimChosen, 7, 0, 0});
  events.push_back({2, EventKind::kFrameEvict, 7, 0, 0});
  events.push_back({3, EventKind::kFrameRetire, 0, 0, 0});
  EXPECT_TRUE(Verify(events, 1).empty());
}

TEST(TraceVerifierTest, CatchesBackwardsClock) {
  std::vector<TraceEvent> events;
  events.push_back({10, EventKind::kPageFault, 1, 0, 0});
  events.push_back({9, EventKind::kPageFault, 2, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "clock moved backwards"));
}

TEST(TraceVerifierTest, CatchesDoubleOpenTransfer) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kTransferStart, 7, 0, 0});
  events.push_back({2, EventKind::kTransferStart, 7, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "already in flight"));
}

TEST(TraceVerifierTest, CatchesCompleteWithoutStart) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kTransferComplete, 7, 0, 100});
  EXPECT_TRUE(HasViolation(Verify(events), "without a matching start"));
}

TEST(TraceVerifierTest, CatchesDanglingTransferAtEndOfStream) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kTransferStart, 7, 1, 1});
  EXPECT_TRUE(HasViolation(Verify(events), "still open at end of stream"));
}

TEST(TraceVerifierTest, TransferKeysDistinguishPageAndLevel) {
  // Same page on two levels, same level on two pages: all four must pair
  // independently.
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kTransferStart, 7, 0, 0});
  events.push_back({1, EventKind::kTransferStart, 7, 1, 0});
  events.push_back({1, EventKind::kTransferStart, 8, 0, 0});
  events.push_back({2, EventKind::kTransferComplete, 7, 0, 10});
  events.push_back({2, EventKind::kTransferComplete, 7, 1, 10});
  events.push_back({2, EventKind::kTransferComplete, 8, 0, 10});
  EXPECT_TRUE(Verify(events).empty());
}

TEST(TraceVerifierTest, CatchesTrafficOnRetiredFrame) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameRetire, 3, 0, 0});
  events.push_back({2, EventKind::kFrameLoad, 9, 3, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "retired frame"));
}

TEST(TraceVerifierTest, CatchesDoubleRetire) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameRetire, 3, 0, 0});
  events.push_back({2, EventKind::kFrameRetire, 3, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "retired twice"));
}

TEST(TraceVerifierTest, CatchesLoadIntoOccupiedFrame) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, 7, 0, 0});
  events.push_back({2, EventKind::kFrameLoad, 8, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "occupied frame"));
}

TEST(TraceVerifierTest, CatchesEvictionOfVacantFrameAndWrongPage) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameEvict, 7, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "vacant frame"));

  events.clear();
  events.push_back({1, EventKind::kFrameLoad, 7, 0, 0});
  events.push_back({2, EventKind::kFrameEvict, 8, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "not resident"));
}

TEST(TraceVerifierTest, CatchesVictimFromWrongFrame) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, 7, 0, 0});
  events.push_back({2, EventKind::kVictimChosen, 9, 0, 0});
  EXPECT_TRUE(HasViolation(Verify(events), "victim chosen"));
}

TEST(TraceVerifierTest, CatchesFrameCountOverflow) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, 7, 0, 0});
  events.push_back({1, EventKind::kFrameLoad, 8, 1, 0});
  events.push_back({1, EventKind::kFrameLoad, 9, 2, 0});
  EXPECT_TRUE(HasViolation(Verify(events, 2), "exceed the frame count"));
  EXPECT_TRUE(Verify(events, 3).empty());  // same stream, enough frames
}

// The load-control rule: between kJobDeactivate and kJobReactivate a job
// owns no frames.  Page ids carry the owning job above `page_job_shift`.
std::vector<TraceViolation> VerifyJobs(const std::vector<TraceEvent>& events) {
  TraceVerifierConfig config;
  config.page_job_shift = 8;  // job = page >> 8 in these tests
  return TraceReplayVerifier(config).Verify(events);
}

TEST(TraceVerifierTest, AcceptsLawfulDeactivationCycle) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, /*page=*/(2u << 8) | 5, 0, 0});
  events.push_back({2, EventKind::kFrameEvict, (2u << 8) | 5, 0, 0});
  events.push_back({2, EventKind::kJobDeactivate, 2, 1, 0});
  events.push_back({3, EventKind::kJobReactivate, 2, 0, 0});
  events.push_back({4, EventKind::kFrameLoad, (2u << 8) | 5, 0, 0});
  EXPECT_TRUE(VerifyJobs(events).empty());
}

TEST(TraceVerifierTest, CatchesLoadForDeactivatedJob) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kJobDeactivate, 2, 0, 0});
  events.push_back({2, EventKind::kFrameLoad, (2u << 8) | 5, 0, 0});
  EXPECT_TRUE(HasViolation(VerifyJobs(events), "deactivated job"));
  // Another job's pages remain loadable.
  events.back().a = (3u << 8) | 5;
  EXPECT_TRUE(VerifyJobs(events).empty());
}

TEST(TraceVerifierTest, CatchesDeactivationWithFramesStillHeld) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, (2u << 8) | 5, 0, 0});
  events.push_back({2, EventKind::kJobDeactivate, 2, 0, 0});
  EXPECT_TRUE(HasViolation(VerifyJobs(events), "still holds a frame"));
}

TEST(TraceVerifierTest, CatchesUnbalancedDeactivation) {
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kJobDeactivate, 2, 0, 0});
  events.push_back({2, EventKind::kJobDeactivate, 2, 0, 0});
  EXPECT_TRUE(HasViolation(VerifyJobs(events), "deactivated twice"));

  events.clear();
  events.push_back({1, EventKind::kJobReactivate, 2, 0, 0});
  EXPECT_TRUE(HasViolation(VerifyJobs(events), "was not deactivated"));
}

TEST(TraceVerifierTest, JobRuleInertWithoutShift) {
  // Without page_job_shift the verifier cannot attribute pages to jobs, so
  // only the pairing of deactivate/reactivate is checked.
  std::vector<TraceEvent> events;
  events.push_back({1, EventKind::kFrameLoad, (2u << 8) | 5, 0, 0});
  events.push_back({2, EventKind::kJobDeactivate, 2, 0, 0});
  events.push_back({3, EventKind::kFrameLoad, (2u << 8) | 6, 1, 0});
  EXPECT_TRUE(Verify(events).empty());
}

TEST(TraceVerifierTest, ViolationCountIsBounded) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back({1, EventKind::kTransferComplete, static_cast<std::uint64_t>(i), 0, 0});
  }
  TraceVerifierConfig config;
  config.max_violations = 16;
  EXPECT_EQ(TraceReplayVerifier(config).Verify(events).size(), 16u);
}

// ---------------------------------------------------------------- metrics --

TEST(MetricsRegistryTest, CountersAndGaugesRegisterOnFirstUse) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.Has("x/count"));
  registry.GetCounter("x/count")->Increment(3);
  registry.GetGauge("x/rate")->Set(0.5);
  EXPECT_TRUE(registry.Has("x/count"));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.CounterValue("x/count"), 3u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("x/rate"), 0.5);
}

TEST(MetricsRegistryTest, AbsentMetricsReadAsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("never"), 0.0);
}

TEST(MetricsRegistryTest, HandlesStayValidAcrossGrowth) {
  MetricsRegistry registry;
  MetricCounter* first = registry.GetCounter("first");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.GetCounter(name);
  }
  first->Increment(7);
  EXPECT_EQ(registry.CounterValue("first"), 7u);
  EXPECT_EQ(registry.GetCounter("first"), first);  // same slot on re-lookup
}

TEST(MetricsRegistryTest, EntriesPreserveRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("b");
  registry.GetGauge("a");
  registry.GetCounter("c");
  const auto entries = registry.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "b");
  EXPECT_EQ(entries[1].name, "a");
  EXPECT_EQ(entries[2].name, "c");
}

}  // namespace
}  // namespace dsa
