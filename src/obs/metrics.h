#ifndef GCHASE_OBS_METRICS_H_
#define GCHASE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace gchase {

class MetricHistogram;

/// Monotonic counter. Pointer-stable once registered: callers cache the
/// pointer and bump it lock-free from any thread.
class MetricCounter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge (peaks, configuration echoes). SetMax folds a
/// running maximum, which is what the chase peak stats need.
class MetricGauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void SetMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

/// Process-wide registry of named counters and gauges — the single sink
/// that unifies what used to be scattered across ChaseStats aggregation,
/// ForestStats, fuzz-runner tallies and ad-hoc bench counters.
///
/// Naming convention (docs/observability.md): dotted lowercase paths,
/// `<layer>.<metric>` — e.g. "chase.rounds", "chase.discovery_units",
/// "fuzz.oracle.io-round-trip.passes". Counters count events forever
/// (monotonic); gauges hold levels or peaks.
class MetricsRegistry {
 public:
  /// Default-constructible so tests (and batch tools) can use private
  /// registries; production code publishes into Global().
  MetricsRegistry();
  ~MetricsRegistry();

  static MetricsRegistry& Global();

  /// Finds or registers a counter/gauge/histogram. The returned pointer
  /// is stable for the registry's lifetime (values are node-owned).
  MetricCounter* Counter(std::string_view name);
  MetricGauge* Gauge(std::string_view name);
  MetricHistogram* Histogram(std::string_view name);

  /// Histogram by name, or nullptr when never registered (for tests and
  /// snapshot assertions without forcing registration).
  MetricHistogram* FindHistogram(std::string_view name) const;

  /// Convenience lookups for tests and snapshot assertions; 0 when the
  /// name was never registered.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;

  /// Registers (or replaces) an extra top-level snapshot section: the
  /// provider's returned string is spliced into SnapshotJson() verbatim
  /// as `"name": <value>` and must therefore be one valid JSON value.
  /// This is how the perf-counter layer publishes its per-phase section
  /// without metrics depending on perf. A null provider unregisters.
  void SetJsonSection(std::string_view name,
                      std::function<std::string()> provider);

  /// JSON snapshot: {"counters": {name: value, ...}, "gauges": {...},
  /// "histograms": {name: {count,p50,p90,p99,max,mean}, ...}, plus one
  /// key per registered section}, names sorted, every leaf a plain
  /// integer. Cheap enough to emit at any abort point — it reads the
  /// maps under a lock and never blocks a writer (writers touch only
  /// their cached atomic).
  std::string SnapshotJson() const;

  /// Zeroes every registered value (registrations survive). For tests
  /// and CLI-process reuse; concurrent writers see a torn-but-valid
  /// state, so reset only at quiescent points.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
      histograms_;
  std::map<std::string, std::function<std::string()>, std::less<>> sections_;
};

}  // namespace gchase

#endif  // GCHASE_OBS_METRICS_H_
