#ifndef GCHASE_OBS_HISTOGRAM_H_
#define GCHASE_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace gchase {

/// Lock-free log-bucketed latency histogram (HDR-style): power-of-two
/// octaves, each split into 16 linear sub-buckets, so every recorded
/// value lands in a bucket whose width is at most 1/16 of the value.
/// Quantile queries therefore carry a bounded relative error of 6.25%
/// (values below 16 are bucketed exactly; the maximum is tracked
/// exactly on the side).
///
/// Recording is wait-free: one relaxed fetch_add into the value's
/// bucket plus count/sum updates and a CAS-max — safe from any number
/// of threads, no locks, no allocation after construction. Reads
/// (quantiles, snapshots) walk the bucket array with relaxed loads and
/// may observe a torn-but-valid state under concurrent recording, which
/// is fine for an observability snapshot.
///
/// This header is std-only on purpose: base/ headers (thread_pool.h)
/// include obs/ headers, so obs/ must never include base/ back.
class MetricHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave (16 => 1/16 relative
  /// bucket width).
  static constexpr uint64_t kSubBuckets = 16;
  static constexpr int kSubBucketBits = 4;
  /// Buckets 0..15 hold values 0..15 exactly; octaves msb=4..63 get 16
  /// buckets each: 16 + 60*16 = 976.
  static constexpr std::size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  MetricHistogram() = default;
  MetricHistogram(const MetricHistogram&) = delete;
  MetricHistogram& operator=(const MetricHistogram&) = delete;

  /// Bucket index of a value. Values < 16 map to themselves; larger
  /// values map to (octave, 1/16th-of-octave).
  static std::size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const uint64_t sub = (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
    return static_cast<std::size_t>(
        (static_cast<uint64_t>(msb - kSubBucketBits + 1)) * kSubBuckets + sub);
  }

  /// Smallest value that lands in bucket `index`.
  static uint64_t BucketLowerBound(std::size_t index) {
    if (index < kSubBuckets) return index;
    const int msb =
        static_cast<int>(index / kSubBuckets) + kSubBucketBits - 1;
    const uint64_t sub = index % kSubBuckets;
    return (uint64_t{1} << msb) + (sub << (msb - kSubBucketBits));
  }

  /// Largest value that lands in bucket `index` (the quantile
  /// representative, so reported quantiles are conservative: >= the true
  /// value, within 1/16 relative).
  static uint64_t BucketUpperBound(std::size_t index) {
    if (index < kSubBuckets) return index;
    const int msb =
        static_cast<int>(index / kSubBuckets) + kSubBucketBits - 1;
    return BucketLowerBound(index) + (uint64_t{1} << (msb - kSubBucketBits)) -
           1;
  }

  /// Records one observation. Wait-free, thread-safe, allocation-free.
  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t mean() const {
    const uint64_t n = count();
    return n == 0 ? 0 : sum() / n;
  }

  /// Value at quantile q in [0, 1]: the upper bound of the bucket that
  /// contains the ceil(q*count)-th smallest observation, clamped to the
  /// exact recorded maximum. Returns 0 on an empty histogram.
  uint64_t ValueAtQuantile(double q) const;

  /// One JSON object: {"count": N, "p50": ..., "p90": ..., "p99": ...,
  /// "max": ..., "mean": ...}. All values plain integers (nanoseconds at
  /// the latency call sites).
  std::string SnapshotJsonObject() const;

  /// Zeroes every bucket and the count/sum/max. Quiescent callers only
  /// (concurrent recorders can leave count and buckets out of step).
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Process-wide switch for the latency-histogram layer, one bit of the
/// observability word (obs/trace.h). Off by default: a PhaseScope with
/// a histogram records into it only while this is on. The CLIs enable
/// it alongside --metrics-json.
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

}  // namespace gchase

#endif  // GCHASE_OBS_HISTOGRAM_H_
