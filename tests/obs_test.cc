// Tests for the observability subsystem (src/obs): the tracing core's
// invariants (span nesting, category filtering, bounded buffers that
// drop rather than corrupt), the Chrome-trace exporter's output shape,
// the metrics registry, and the governor contract — an aborted run still
// flushes everything it recorded. The concurrent test is also a TSan
// target (see .github/workflows/ci.yml): eight workers record into the
// tracer while the main thread collects.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/phase.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

Tracer::Config ConfigFor(uint32_t categories,
                         std::size_t capacity = std::size_t{1} << 14) {
  Tracer::Config config;
  config.categories = categories;
  config.buffer_capacity = capacity;
  return config;
}

/// All collected events flattened, in per-thread order.
std::vector<TraceEvent> AllEvents() {
  std::vector<TraceEvent> out;
  for (const Tracer::ThreadEvents& thread : Tracer::Global().Collect()) {
    out.insert(out.end(), thread.events.begin(), thread.events.end());
  }
  return out;
}

/// Walks one thread's events checking stack discipline: every 'E' closes
/// the innermost open 'B' of the same name, timestamps never decrease,
/// and no span is left open. Returns false (and fails the test) on any
/// violation.
void ExpectBalanced(const Tracer::ThreadEvents& thread) {
  std::vector<const char*> stack;
  uint64_t last_ts = 0;
  for (const TraceEvent& event : thread.events) {
    EXPECT_GE(event.ts_ns, last_ts) << "timestamps must be non-decreasing";
    last_ts = event.ts_ns;
    switch (event.phase) {
      case TracePhase::kBegin:
        stack.push_back(event.name);
        break;
      case TracePhase::kEnd:
        ASSERT_FALSE(stack.empty()) << "E without matching B: " << event.name;
        EXPECT_STREQ(stack.back(), event.name);
        stack.pop_back();
        break;
      case TracePhase::kInstant:
      case TracePhase::kComplete:
        break;
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed spans remain";
}

// -------------------------------------------------------------------------
// Category parsing.

TEST(TraceCategoryTest, ParseSingleAndList) {
  bool ok = false;
  EXPECT_EQ(ParseTraceCategories("chase", &ok),
            static_cast<uint32_t>(TraceCategory::kChase));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseTraceCategories("chase,pool,decider", &ok),
            (static_cast<uint32_t>(TraceCategory::kChase) |
             static_cast<uint32_t>(TraceCategory::kPool) |
             static_cast<uint32_t>(TraceCategory::kDecider)));
  EXPECT_TRUE(ok);
}

TEST(TraceCategoryTest, EmptyListMeansEverything) {
  bool ok = false;
  EXPECT_EQ(ParseTraceCategories("", &ok), kAllTraceCategories);
  EXPECT_TRUE(ok);
}

TEST(TraceCategoryTest, UnknownNameFails) {
  bool ok = true;
  EXPECT_EQ(ParseTraceCategories("chase,bogus", &ok), 0u);
  EXPECT_FALSE(ok);
}

TEST(TraceCategoryTest, NamesRoundTrip) {
  for (TraceCategory category :
       {TraceCategory::kChase, TraceCategory::kPool, TraceCategory::kDecider,
        TraceCategory::kStorage, TraceCategory::kFuzz}) {
    bool ok = false;
    EXPECT_EQ(ParseTraceCategories(TraceCategoryName(category), &ok),
              static_cast<uint32_t>(category));
    EXPECT_TRUE(ok);
  }
}

// -------------------------------------------------------------------------
// Tracing core.

TEST(TracerTest, SpansNestAndOrder) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  {
    PhaseScope outer(Phase::kChaseRound, 1);
    {
      PhaseScope inner(Phase::kChaseDiscovery, 2);
      GCHASE_TRACE_INSTANT(TraceCategory::kChase, "tick", 3);
    }
  }
  tracer.Stop();

  std::vector<TraceEvent> events = AllEvents();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_STREQ(events[0].name, "chase.round");
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[0].arg, 1u);
  EXPECT_STREQ(events[1].name, "chase.discovery");
  EXPECT_EQ(events[1].phase, TracePhase::kBegin);
  EXPECT_STREQ(events[2].name, "tick");
  EXPECT_EQ(events[2].phase, TracePhase::kInstant);
  EXPECT_STREQ(events[3].name, "chase.discovery");
  EXPECT_EQ(events[3].phase, TracePhase::kEnd);
  EXPECT_STREQ(events[4].name, "chase.round");
  EXPECT_EQ(events[4].phase, TracePhase::kEnd);
  for (const Tracer::ThreadEvents& thread : tracer.Collect()) {
    ExpectBalanced(thread);
  }
}

TEST(TracerTest, CategoryFilteringDropsDisabledCategories) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(static_cast<uint32_t>(TraceCategory::kChase)));
  EXPECT_TRUE(tracer.enabled(TraceCategory::kChase));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kPool));
  {
    PhaseScope kept(Phase::kChaseRound);
    PhaseScope filtered(Phase::kPoolJob);
    GCHASE_TRACE_INSTANT(TraceCategory::kStorage, "filtered_too", 0);
  }
  tracer.Stop();

  std::vector<TraceEvent> events = AllEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "chase.round");
  EXPECT_STREQ(events[1].name, "chase.round");
  // Filtering is not dropping: nothing was lost, nothing is counted.
  EXPECT_EQ(tracer.TotalDropped(), 0u);
}

TEST(TracerTest, SessionRestartDiscardsOldEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  GCHASE_TRACE_INSTANT(TraceCategory::kChase, "first_session", 0);
  tracer.Start(ConfigFor(kAllTraceCategories));
  GCHASE_TRACE_INSTANT(TraceCategory::kChase, "second_session", 0);
  tracer.Stop();

  std::vector<TraceEvent> events = AllEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second_session");
}

TEST(TracerTest, OverflowDropsAndCountsWithoutCorruption) {
  Tracer& tracer = Tracer::Global();
  constexpr std::size_t kCapacity = 8;
  tracer.Start(ConfigFor(kAllTraceCategories, kCapacity));
  for (int i = 0; i < 100; ++i) {
    GCHASE_TRACE_INSTANT(TraceCategory::kChase, "flood", i);
  }
  tracer.Stop();

  std::vector<Tracer::ThreadEvents> threads = tracer.Collect();
  ASSERT_EQ(threads.size(), 1u);
  // Exactly the first kCapacity events made it; the rest were counted.
  EXPECT_EQ(threads[0].events.size(), kCapacity);
  EXPECT_EQ(threads[0].dropped, 100u - kCapacity);
  EXPECT_EQ(tracer.TotalDropped(), 100u - kCapacity);
  for (std::size_t i = 0; i < threads[0].events.size(); ++i) {
    EXPECT_STREQ(threads[0].events[i].name, "flood");
    EXPECT_EQ(threads[0].events[i].arg, i);
  }
}

TEST(TracerTest, SaturatedSpansStillClose) {
  Tracer& tracer = Tracer::Global();
  constexpr std::size_t kCapacity = 4;
  tracer.Start(ConfigFor(kAllTraceCategories, kCapacity));
  // Open a span, saturate the buffer, then open more spans (dropped) and
  // close everything. The reserved end slack guarantees the recorded
  // span's end still lands, so the trace stays balanced.
  {
    PhaseScope recorded(Phase::kChaseRound);
    for (int i = 0; i < 50; ++i) {
      GCHASE_TRACE_INSTANT(TraceCategory::kChase, "filler", i);
    }
    {
      PhaseScope dropped(Phase::kChaseApply);
      GCHASE_TRACE_INSTANT(TraceCategory::kChase, "more", 0);
    }
  }
  tracer.Stop();

  std::vector<Tracer::ThreadEvents> threads = tracer.Collect();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_GT(threads[0].dropped, 0u);
  ExpectBalanced(threads[0]);
  // The outer span both began and ended despite saturation in between.
  uint64_t begins = 0;
  uint64_t ends = 0;
  for (const TraceEvent& event : threads[0].events) {
    if (std::string(event.name) != "chase.round") continue;
    if (event.phase == TracePhase::kBegin) ++begins;
    if (event.phase == TracePhase::kEnd) ++ends;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
}

TEST(TracerTest, CompleteEventsAreThresholdGated) {
  Tracer& tracer = Tracer::Global();
  Tracer::Config config = ConfigFor(kAllTraceCategories);
  config.complete_threshold_ns = 1000;
  tracer.Start(config);
  tracer.RecordComplete(TraceCategory::kChase, "fast", 0, 999, 1);
  tracer.RecordComplete(TraceCategory::kChase, "slow", 0, 1001, 2);
  tracer.Stop();

  std::vector<TraceEvent> events = AllEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "slow");
  EXPECT_EQ(events[0].phase, TracePhase::kComplete);
  EXPECT_EQ(events[0].dur_ns, 1001u);
}

TEST(TracerTest, DisabledTracerRecordsNothingAndAllocatesNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  tracer.Stop();  // fresh empty session, then disabled

  const uint64_t buffers_before = tracer.buffers_created();
  for (int i = 0; i < 1000; ++i) {
    PhaseScope noop(Phase::kChaseRound, i);
    GCHASE_TRACE_INSTANT(TraceCategory::kPool, "noop_instant", i);
  }
  // No category enabled: no events stored, no buffer ever allocated —
  // the instrumentation cost was one relaxed load per site.
  EXPECT_EQ(tracer.buffers_created(), buffers_before);
  EXPECT_TRUE(AllEvents().empty());
  EXPECT_EQ(tracer.TotalDropped(), 0u);
}

// Eight workers record spans and instants concurrently while the main
// thread collects mid-flight; run under TSan in CI. Single-writer
// buffers with release-publication make this race-free by construction.
TEST(TracerTest, ConcurrentRecordingFromPoolWorkers) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  std::atomic<uint64_t> work{0};
  {
    ThreadPool pool(8);
    pool.ParallelFor(256, [&work](uint64_t i) {
      PhaseScope unit(Phase::kChaseDiscovery, i);
      GCHASE_TRACE_INSTANT(TraceCategory::kChase, "unit_tick", i);
      work.fetch_add(i, std::memory_order_relaxed);
      if (i == 128) {
        // Concurrent collection: readers only see published prefixes.
        (void)Tracer::Global().Collect();
      }
    });
  }
  tracer.Stop();
  EXPECT_EQ(work.load(), uint64_t{256} * 255 / 2);

  uint64_t units = 0;
  for (const Tracer::ThreadEvents& thread : tracer.Collect()) {
    ExpectBalanced(thread);
    for (const TraceEvent& event : thread.events) {
      if (std::string(event.name) == "chase.discovery" &&
          event.phase == TracePhase::kBegin) {
        ++units;
      }
    }
  }
  // Every unit recorded exactly once, whichever worker ran it (the pool
  // instrumentation contributes pool.* events on top).
  EXPECT_EQ(units, 256u);
}

// -------------------------------------------------------------------------
// Exporter.

TEST(TraceExportTest, ChromeJsonShapeAndBalance) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  {
    PhaseScope outer(Phase::kChaseRound, 7);
    GCHASE_TRACE_INSTANT(TraceCategory::kPool, "export_tick", 9);
  }
  tracer.RecordComplete(TraceCategory::kChase, "export_slow", 0, 1'000'000, 3);
  tracer.Stop();

  const std::string json = TraceToChromeJson(tracer.Collect());
  // Structural sanity without a JSON parser: balanced braces/brackets
  // (no exported string contains either — names are C identifiers) and
  // the required top-level keys. CI's check_trace.py does the real parse.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"chase.round\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"chase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"pool\""), std::string::npos);
  // One B and one E for the span.
  std::size_t begins = 0;
  for (std::size_t pos = json.find("\"ph\": \"B\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"B\"", pos + 1)) {
    ++begins;
  }
  std::size_t ends = 0;
  for (std::size_t pos = json.find("\"ph\": \"E\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"E\"", pos + 1)) {
    ++ends;
  }
  EXPECT_EQ(begins, ends);
}

TEST(TraceExportTest, FlameSummaryAggregatesSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  for (int i = 0; i < 3; ++i) {
    PhaseScope scope(Phase::kChaseApply, i);
  }
  tracer.Stop();

  const std::string summary = TraceFlameSummary(tracer.Collect());
  EXPECT_NE(summary.find("chase.apply"), std::string::npos);
  EXPECT_NE(summary.find("3"), std::string::npos);  // count column
}

TEST(TraceExportTest, SaturatedTraceReportsDrops) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories, 2));
  for (int i = 0; i < 10; ++i) {
    GCHASE_TRACE_INSTANT(TraceCategory::kChase, "drop_me", i);
  }
  tracer.Stop();
  const std::string json = TraceToChromeJson(tracer.Collect());
  EXPECT_NE(json.find("\"dropped_events\": 8"), std::string::npos);
}

// -------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.Counter("test.counter");
  ASSERT_NE(counter, nullptr);
  counter->Increment();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
  // Find-or-create returns the same instance.
  EXPECT_EQ(registry.Counter("test.counter"), counter);
  EXPECT_EQ(registry.CounterValue("test.counter"), 42u);
  EXPECT_EQ(registry.CounterValue("never.registered"), 0u);

  MetricGauge* gauge = registry.Gauge("test.peak");
  gauge->SetMax(10);
  gauge->SetMax(5);  // lower value must not win
  EXPECT_EQ(gauge->value(), 10);
  gauge->Set(3);  // plain Set always wins
  EXPECT_EQ(gauge->value(), 3);
}

TEST(MetricsTest, SnapshotJsonIsSortedAndIntegral) {
  MetricsRegistry registry;
  registry.Counter("b.second")->Add(2);
  registry.Counter("a.first")->Add(1);
  registry.Gauge("z.gauge")->Set(-7);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.second\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"z.gauge\": -7"), std::string::npos);
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsTest, ResetZeroesValuesKeepsRegistrations) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.Counter("test.reset");
  counter->Add(5);
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(registry.Counter("test.reset"), counter);
}

TEST(MetricsTest, PublishChaseMetricsExportsParallelFields) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X).\n"
      "q(X) -> r(X).\n"
      "p(a).\n");
  ChaseOptions options;
  ChaseRun run(program.rules, options, program.facts);
  ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);

  MetricsRegistry registry;
  PublishChaseMetrics(run.stats(), &registry);
  EXPECT_EQ(registry.CounterValue("chase.runs"), 1u);
  EXPECT_GT(registry.CounterValue("chase.rounds"), 0u);
  EXPECT_GT(registry.CounterValue("chase.triggers_applied"), 0u);
  EXPECT_GT(registry.GaugeValue("chase.peak_atoms"), 0);
  const std::string json = registry.SnapshotJson();
  // The previously-unserialized parallel-discovery fields surface here.
  EXPECT_NE(json.find("\"chase.parallel_rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"chase.estimated_work\""), std::string::npos);
  EXPECT_NE(json.find("\"chase.discovery_threads\""), std::string::npos);
}

// -------------------------------------------------------------------------
// Governor contract: an injected abort still flushes trace and metrics.

TEST(ObsGovernorTest, AbortedChaseStillFlushesTraceAndMetrics) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));

  ParsedProgram program = MustParse("p(X) -> p(Y).\np(a).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.fault_injector = [](FaultSite site, uint64_t ordinal) {
    return site == FaultSite::kTriggerApply && ordinal == 3
               ? InjectedFault::kCancel
               : InjectedFault::kNone;
  };
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kCancelled);
  tracer.Stop();

  // Everything recorded before the abort is collectable and balanced —
  // the cooperative stop unwound every open span on its way out.
  bool saw_chase_round = false;
  for (const Tracer::ThreadEvents& thread : tracer.Collect()) {
    ExpectBalanced(thread);
    for (const TraceEvent& event : thread.events) {
      if (std::string(event.name) == "chase.round") saw_chase_round = true;
    }
  }
  EXPECT_TRUE(saw_chase_round);

  // The partial stats publish cleanly too.
  MetricsRegistry registry;
  PublishChaseMetrics(run.stats(), &registry);
  EXPECT_EQ(registry.CounterValue("chase.triggers_applied"), 3u);
  EXPECT_NE(registry.SnapshotJson().find("\"chase.rounds\""),
            std::string::npos);
}

// -------------------------------------------------------------------------
// Latency histograms.

TEST(HistogramTest, SmallValuesBucketExactly) {
  // Values below kSubBuckets occupy one bucket each: no quantization.
  for (uint64_t v = 0; v < MetricHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(MetricHistogram::BucketIndex(v), v);
    EXPECT_EQ(MetricHistogram::BucketLowerBound(v), v);
    EXPECT_EQ(MetricHistogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramTest, BucketBoundsRoundTrip) {
  // Every value lands in a bucket whose [lower, upper] range contains
  // it, and consecutive buckets tile the value space without gaps.
  std::vector<uint64_t> probes;
  for (int shift = 0; shift < 63; ++shift) {
    const uint64_t p = uint64_t{1} << shift;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) probes.push_back(rng());
  for (uint64_t value : probes) {
    const std::size_t index = MetricHistogram::BucketIndex(value);
    ASSERT_LT(index, MetricHistogram::kNumBuckets) << "value " << value;
    EXPECT_LE(MetricHistogram::BucketLowerBound(index), value);
    EXPECT_GE(MetricHistogram::BucketUpperBound(index), value);
  }
  for (std::size_t index = 0; index + 1 < MetricHistogram::kNumBuckets;
       ++index) {
    EXPECT_EQ(MetricHistogram::BucketUpperBound(index) + 1,
              MetricHistogram::BucketLowerBound(index + 1))
        << "gap after bucket " << index;
  }
}

TEST(HistogramTest, QuantilesMatchSortedOracle) {
  // Log-normal-ish latencies: the shape latency data actually takes.
  MetricHistogram hist;
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(10.0, 2.0);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = static_cast<uint64_t>(dist(rng));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(hist.count(), values.size());
  EXPECT_EQ(hist.max(), values.back());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Same rank the implementation targets: ceil(q * count), >= 1.
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const uint64_t truth = values[rank - 1];
    const uint64_t reported = hist.ValueAtQuantile(q);
    // Bucket upper bounds make quantiles conservative, never low, and
    // the 16-sub-bucket octaves bound the overshoot at 1/16 relative.
    EXPECT_GE(reported, truth) << "q=" << q;
    EXPECT_LE(reported, truth + truth / 16 + 1) << "q=" << q;
  }
  EXPECT_EQ(hist.ValueAtQuantile(1.0), values.back());
}

TEST(HistogramTest, EmptyAndResetReadAsZero) {
  MetricHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(hist.mean(), 0u);
  hist.Record(1000);
  hist.Record(3000);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.mean(), 2000u);
  EXPECT_EQ(hist.max(), 3000u);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.ValueAtQuantile(0.99), 0u);
}

TEST(HistogramTest, SnapshotJsonObjectShape) {
  MetricHistogram hist;
  for (uint64_t v = 1; v <= 100; ++v) hist.Record(v * 1000);
  const std::string json = hist.SnapshotJsonObject();
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  for (const char* key : {"\"p50\":", "\"p90\":", "\"p99\":", "\"max\":",
                          "\"mean\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// Run under TSan in CI: recording must be race-free from any number of
// threads, and no observation may be lost.
TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  MetricHistogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(hist.sum(), n * (n - 1) / 2);
  EXPECT_EQ(hist.max(), n - 1);
}

TEST(HistogramTest, PhaseHistogramIsInertWhenProfilingOff) {
  const bool was_enabled = ProfilingEnabled();
  MetricHistogram* hist =
      MetricsRegistry::Global().Histogram("chase.head_check_ns");
  const uint64_t before = hist->count();
  SetProfilingEnabled(false);
  { PhaseScope scope(Phase::kChaseHeadCheck); }
  EXPECT_EQ(hist->count(), before) << "disabled profiling must not record";

  SetProfilingEnabled(true);
  { PhaseScope scope(Phase::kChaseHeadCheck); }
  EXPECT_EQ(hist->count(), before + 1);
  SetProfilingEnabled(was_enabled);
}

TEST(HistogramTest, RegistrySnapshotsAndResetsHistograms) {
  MetricsRegistry registry;
  MetricHistogram* hist = registry.Histogram("test.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(registry.Histogram("test.latency_ns"), hist);  // find-or-create
  EXPECT_EQ(registry.FindHistogram("never.registered"), nullptr);
  hist->Record(500);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  registry.Reset();
  EXPECT_EQ(hist->count(), 0u);
}

// -------------------------------------------------------------------------
// Perf counters: availability is environment-dependent (CI containers
// usually have no PMU and may block perf_event_open entirely), so these
// tests assert the contract that must hold everywhere — stable snapshot
// shape, graceful degradation, inert-when-disabled — and only check
// live counting when the probe says it works.

TEST(PerfCountersTest, SnapshotAlwaysListsEveryPhase) {
  const std::string json = PerfSnapshotJson();
  EXPECT_NE(json.find("\"available\":"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_events\":"), std::string::npos);
  for (const char* phase :
       {"discovery", "apply", "dedup_growth", "decider", "load"}) {
    EXPECT_NE(json.find(std::string("\"") + phase + "\""), std::string::npos)
        << phase;
  }
  for (const char* key :
       {"\"scopes\":", "\"cycles\":", "\"instructions\":",
        "\"cache_references\":", "\"cache_misses\":", "\"branch_misses\":",
        "\"task_clock_ns\":", "\"ipc\":", "\"cache_miss_rate\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(PerfCountersTest, DisabledScopesAreInert) {
  DisablePerfCounters();
  ResetPerfCounters();
  {
    PhaseScope scope(Phase::kDeciderExact);
  }
  EXPECT_EQ(PerfTotalsForPhase(PerfPhase::kDecider).scopes, 0u);
}

TEST(PerfCountersTest, EnableDegradesGracefullyOrCounts) {
  ResetPerfCounters();
  const bool available = EnablePerfCounters();
  EXPECT_EQ(available, PerfCountersAvailable());
  EXPECT_EQ(available, PerfCountersEnabled());
  if (!available) {
    // The unavailable path must still explain itself and stay inert.
    EXPECT_FALSE(PerfUnavailableReason().empty());
    {
      PhaseScope scope(Phase::kDeciderExact);
    }
    EXPECT_EQ(PerfTotalsForPhase(PerfPhase::kDecider).scopes, 0u);
  } else {
    {
      PhaseScope scope(Phase::kDeciderExact);
      // Burn a little CPU so task-clock has something to see.
      volatile uint64_t sink = 0;
      for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    }
    const PerfPhaseTotals totals = PerfTotalsForPhase(PerfPhase::kDecider);
    EXPECT_EQ(totals.scopes, 1u);
    if (PerfHardwareEventsAvailable()) {
      EXPECT_GT(totals.events[kPerfCycles], 0u);
      EXPECT_GT(totals.events[kPerfInstructions], 0u);
    } else {
      // Software fallback: task-clock still attributes on-CPU time and
      // the snapshot says why the hardware columns are zero.
      EXPECT_GT(totals.events[kPerfTaskClockNs], 0u);
      EXPECT_FALSE(PerfUnavailableReason().empty());
      EXPECT_NE(PerfSnapshotJson().find("\"hardware_reason\":"),
                std::string::npos);
    }
    // Untouched phases stay zero.
    EXPECT_EQ(PerfTotalsForPhase(PerfPhase::kLoad).scopes, 0u);
  }
  DisablePerfCounters();
  ResetPerfCounters();
  EXPECT_FALSE(PerfCountersEnabled());
}

// -------------------------------------------------------------------------
// PhaseScope: one clock reading feeds the seconds sink, the histogram,
// the trace span and the perf delta. (c) is also a TSan target.

/// Durations (E.ts - B.ts) of every span named `name` in one thread's
/// events, in the order the spans closed.
std::vector<uint64_t> SpanDurations(const std::vector<TraceEvent>& events,
                                    const char* name) {
  std::vector<uint64_t> open;
  std::vector<uint64_t> durations;
  for (const TraceEvent& event : events) {
    if (std::string(event.name) != name) continue;
    if (event.phase == TracePhase::kBegin) open.push_back(event.ts_ns);
    if (event.phase == TracePhase::kEnd && !open.empty()) {
      durations.push_back(event.ts_ns - open.back());
      open.pop_back();
    }
  }
  return durations;
}

uint64_t Nanos(double seconds) {
  return static_cast<uint64_t>(std::llround(seconds * 1e9));
}

TEST(PhaseScopeTest, EverythingOffStillWritesTheSink) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  tracer.Stop();
  const bool was_profiling = ProfilingEnabled();
  SetProfilingEnabled(false);
  DisablePerfCounters();
  ResetPerfCounters();
  MetricHistogram* hist =
      MetricsRegistry::Global().Histogram("decider.phase_ns");
  const uint64_t hist_before = hist->count();
  const uint64_t buffers_before = tracer.buffers_created();

  double seconds = 0.0;
  {
    PhaseScope scope(Phase::kDeciderExact, 1, &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double first = seconds;
  EXPECT_GE(first, 1e-3);
  {
    PhaseScope scope(Phase::kDeciderProbe, 2, &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(seconds, first + 1e-3) << "the sink accumulates";

  EXPECT_EQ(tracer.buffers_created(), buffers_before);
  EXPECT_TRUE(AllEvents().empty());
  EXPECT_EQ(hist->count(), hist_before);
  EXPECT_EQ(PerfTotalsForPhase(PerfPhase::kDecider).scopes, 0u);
  SetProfilingEnabled(was_profiling);
}

TEST(PhaseScopeTest, OneReadingFeedsStatsSpansAndHistograms) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(static_cast<uint32_t>(TraceCategory::kChase)));
  const bool was_profiling = ProfilingEnabled();
  SetProfilingEnabled(true);
  MetricsRegistry::Global().Reset();

  // Transitive closure of a 6-edge chain: several rounds, then one
  // terminal discovery pass that finds nothing.
  ParsedProgram program = MustParse(
      "e(X,Y) -> p(X,Y).\n"
      "p(X,Y), e(Y,Z) -> p(X,Z).\n"
      "e(a,b). e(b,c). e(c,d). e(d,f). e(f,g). e(g,h).\n");
  ChaseRun run(program.rules, ChaseOptions{}, program.facts);
  ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  tracer.Stop();
  SetProfilingEnabled(was_profiling);

  const ChaseStats& stats = run.stats();
  const std::size_t rounds = stats.per_round.size();
  ASSERT_GE(rounds, 3u);
  const std::vector<TraceEvent> events = AllEvents();
  const std::vector<uint64_t> discovery =
      SpanDurations(events, "chase.discovery");
  const std::vector<uint64_t> apply = SpanDurations(events, "chase.apply");
  const std::vector<uint64_t> round = SpanDurations(events, "chase.round");
  ASSERT_EQ(discovery.size(), rounds + 1);
  ASSERT_EQ(apply.size(), rounds);
  ASSERT_EQ(round.size(), rounds + 1);
  uint64_t discovery_sum = 0;
  uint64_t apply_sum = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const RoundStats& stat = stats.per_round[r];
    EXPECT_NEAR(discovery[r], Nanos(stat.discovery_seconds), 1) << r;
    EXPECT_NEAR(apply[r], Nanos(stat.apply_seconds), 1) << r;
    EXPECT_NEAR(round[r], Nanos(stat.total_seconds), 1) << r;
    discovery_sum += discovery[r];
    apply_sum += apply[r];
  }
  EXPECT_NEAR(discovery[rounds], Nanos(stats.final_discovery_seconds), 1);
  discovery_sum += discovery[rounds];

  // Every pass records, the terminal one included: rounds + 1 samples.
  const MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricHistogram* discovery_hist =
      registry.FindHistogram("chase.discovery_ns");
  const MetricHistogram* apply_hist = registry.FindHistogram("chase.apply_ns");
  const MetricHistogram* round_hist = registry.FindHistogram("chase.round_ns");
  ASSERT_NE(discovery_hist, nullptr);
  ASSERT_NE(apply_hist, nullptr);
  ASSERT_NE(round_hist, nullptr);
  EXPECT_EQ(discovery_hist->count(), rounds + 1);
  EXPECT_EQ(apply_hist->count(), rounds);
  EXPECT_EQ(round_hist->count(), rounds + 1);
  EXPECT_EQ(discovery_hist->sum(), discovery_sum);
  EXPECT_EQ(apply_hist->sum(), apply_sum);
  double stats_discovery = stats.final_discovery_seconds;
  double stats_apply = 0.0;
  for (const RoundStats& stat : stats.per_round) {
    stats_discovery += stat.discovery_seconds;
    stats_apply += stat.apply_seconds;
  }
  EXPECT_NEAR(discovery_hist->sum(), Nanos(stats_discovery), rounds + 1);
  EXPECT_NEAR(apply_hist->sum(), Nanos(stats_apply), rounds);
}

TEST(PhaseScopeTest, OneMergeSamplePerMergedPass) {
  const bool was_profiling = ProfilingEnabled();
  SetProfilingEnabled(true);
  ParsedProgram program = MustParse(
      "e(X,Y) -> p(X,Y).\n"
      "p(X,Y), e(Y,Z) -> p(X,Z).\n"
      "e(a,b). e(b,c). e(c,d). e(d,f). e(f,g). e(g,h).\n");
  const auto samples = [](const char* name) {
    const MetricHistogram* hist = MetricsRegistry::Global().FindHistogram(name);
    return hist == nullptr ? uint64_t{0} : hist->count();
  };

  // Uncapped: every pass merges, the terminal empty one included.
  MetricsRegistry::Global().Reset();
  ChaseRun run(program.rules, ChaseOptions{}, program.facts);
  ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  const uint64_t rounds = run.stats().per_round.size();
  EXPECT_EQ(samples("chase.discovery_merge_ns"), rounds + 1);
  EXPECT_EQ(samples("chase.discovery_ns"), rounds + 1);

  // A hom cap that binds mid-round: the round reruns its units inline,
  // and that pass still records one merge sample.
  MetricsRegistry::Global().Reset();
  ChaseOptions capped;
  capped.max_hom_discoveries = 9;
  ChaseRun capped_run(program.rules, capped, program.facts);
  ASSERT_EQ(capped_run.Execute(), ChaseOutcome::kResourceLimit);
  EXPECT_EQ(capped_run.hom_discoveries(), 9u);
  EXPECT_EQ(samples("chase.discovery_merge_ns"),
            samples("chase.discovery_ns"));

  // A pass stopped at its first unit never reaches the merge.
  MetricsRegistry::Global().Reset();
  ChaseOptions faulted;
  faulted.fault_injector = [](FaultSite site, uint64_t ordinal) {
    return site == FaultSite::kDiscovery && ordinal == 0
               ? InjectedFault::kCancel
               : InjectedFault::kNone;
  };
  ChaseRun faulted_run(program.rules, faulted, program.facts);
  ASSERT_EQ(faulted_run.Execute(), ChaseOutcome::kCancelled);
  EXPECT_EQ(samples("chase.discovery_ns"), 1u);
  EXPECT_EQ(samples("chase.discovery_merge_ns"), 0u);
  SetProfilingEnabled(was_profiling);
}

TEST(PhaseScopeTest, ConcurrentScopesLoseNoSamples) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(ConfigFor(kAllTraceCategories));
  const bool was_profiling = ProfilingEnabled();
  SetProfilingEnabled(true);
  MetricsRegistry::Global().Reset();

  constexpr uint64_t kUnits = 1000;
  std::vector<double> seconds(kUnits, 0.0);
  {
    ThreadPool pool(4);
    pool.ParallelFor(kUnits, [&seconds](uint64_t u) {
      PhaseScope scope(Phase::kChaseBatchFlush, u, &seconds[u]);
    });
  }
  tracer.Stop();
  SetProfilingEnabled(was_profiling);

  uint64_t spans = 0;
  uint64_t span_ns = 0;
  for (const Tracer::ThreadEvents& thread : tracer.Collect()) {
    ExpectBalanced(thread);
    for (uint64_t ns : SpanDurations(thread.events, "chase.batch_flush")) {
      ++spans;
      span_ns += ns;
    }
  }
  EXPECT_EQ(spans, kUnits);
  const MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricHistogram* hist = registry.FindHistogram("chase.batch_flush_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), kUnits);
  EXPECT_EQ(hist->sum(), span_ns);
  double total = 0.0;
  for (double s : seconds) total += s;
  EXPECT_NEAR(hist->sum(), Nanos(total), kUnits);
  EXPECT_EQ(registry.FindHistogram("pool.job_ns")->count(), 1u);
}

// -------------------------------------------------------------------------
// Progress heartbeat.

TEST(ProgressTest, EnabledFlagTracksReporterLifetime) {
  EXPECT_FALSE(ProgressEnabled());
  ProgressReporter reporter;
  ProgressReporter::Options options;
  options.interval_ms = 3600 * 1000;  // never ticks on its own
  ASSERT_TRUE(reporter.Start(options));
  EXPECT_TRUE(ProgressEnabled());
  EXPECT_TRUE(reporter.running());
  reporter.Stop();
  EXPECT_FALSE(ProgressEnabled());
  EXPECT_FALSE(reporter.running());
  // The final flush-on-stop sample always lands, even with no ticks.
  EXPECT_EQ(reporter.samples_emitted(), 1u);
  reporter.Stop();  // idempotent
  EXPECT_EQ(reporter.samples_emitted(), 1u);
}

TEST(ProgressTest, StartFailsOnUnwritableNdjsonPath) {
  ProgressReporter reporter;
  ProgressReporter::Options options;
  options.ndjson_path = "/nonexistent-directory/progress.ndjson";
  EXPECT_FALSE(reporter.Start(options));
  EXPECT_FALSE(reporter.running());
  EXPECT_FALSE(ProgressEnabled());
}

TEST(ProgressTest, NdjsonCarriesCountersAndSamplers) {
  const std::string path =
      testing::TempDir() + "/gchase_progress_test.ndjson";
  GlobalProgress().rounds.store(7, std::memory_order_relaxed);
  GlobalProgress().atoms.store(1234, std::memory_order_relaxed);
  GlobalProgress().triggers.store(55, std::memory_order_relaxed);

  ProgressReporter reporter;
  ProgressReporter::Options options;
  options.mode = ProgressReporter::Mode::kChase;
  options.interval_ms = 3600 * 1000;
  options.ndjson_path = path;
  options.in_use_bytes = [] { return uint64_t{4096}; };
  options.budget_bytes = [] { return uint64_t{8192}; };
  options.remaining_seconds = [] { return 9.5; };
  ASSERT_TRUE(reporter.Start(options));
  reporter.Stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"mode\": \"chase\""), std::string::npos);
  EXPECT_NE(line.find("\"round\": 7"), std::string::npos);
  EXPECT_NE(line.find("\"atoms\": 1234"), std::string::npos);
  EXPECT_NE(line.find("\"triggers\": 55"), std::string::npos);
  EXPECT_NE(line.find("\"in_use_bytes\": 4096"), std::string::npos);
  EXPECT_NE(line.find("\"budget_bytes\": 8192"), std::string::npos);
  EXPECT_NE(line.find("\"remaining_s\": 9.5"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
            std::count(line.begin(), line.end(), '}'));
  std::remove(path.c_str());
  GlobalProgress().rounds.store(0, std::memory_order_relaxed);
  GlobalProgress().atoms.store(0, std::memory_order_relaxed);
  GlobalProgress().triggers.store(0, std::memory_order_relaxed);
}

TEST(ProgressTest, FuzzModeReportsTrialTallies) {
  const std::string path = testing::TempDir() + "/gchase_fuzz_test.ndjson";
  GlobalProgress().trials_started.store(11, std::memory_order_relaxed);
  GlobalProgress().trials_run.store(10, std::memory_order_relaxed);
  GlobalProgress().trials_failed.store(2, std::memory_order_relaxed);

  ProgressReporter reporter;
  ProgressReporter::Options options;
  options.mode = ProgressReporter::Mode::kFuzz;
  options.interval_ms = 3600 * 1000;
  options.ndjson_path = path;
  ASSERT_TRUE(reporter.Start(options));
  reporter.Stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"mode\": \"fuzz\""), std::string::npos);
  EXPECT_NE(line.find("\"trials_started\": 11"), std::string::npos);
  EXPECT_NE(line.find("\"trials_run\": 10"), std::string::npos);
  EXPECT_NE(line.find("\"trials_failed\": 2"), std::string::npos);
  std::remove(path.c_str());
  GlobalProgress().trials_started.store(0, std::memory_order_relaxed);
  GlobalProgress().trials_run.store(0, std::memory_order_relaxed);
  GlobalProgress().trials_failed.store(0, std::memory_order_relaxed);
}

// Heartbeat ticks happen while work runs; run under TSan in CI against
// concurrent engine-side counter stores.
TEST(ProgressTest, TicksConcurrentlyWithCounterUpdates) {
  ProgressReporter reporter;
  ProgressReporter::Options options;
  options.interval_ms = 1;
  options.ndjson_path = testing::TempDir() + "/gchase_ticks_test.ndjson";
  ASSERT_TRUE(reporter.Start(options));
  for (int i = 0; i < 2000; ++i) {
    if (ProgressEnabled()) {
      GlobalProgress().atoms.fetch_add(1, std::memory_order_relaxed);
      GlobalProgress().rounds.store(static_cast<uint64_t>(i),
                                    std::memory_order_relaxed);
    }
    if (i == 1000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  reporter.Stop();
  EXPECT_GE(reporter.samples_emitted(), 1u);
  std::remove(options.ndjson_path.c_str());
  GlobalProgress().atoms.store(0, std::memory_order_relaxed);
  GlobalProgress().rounds.store(0, std::memory_order_relaxed);
}

}  // namespace
}  // namespace gchase
