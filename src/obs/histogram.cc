#include "obs/histogram.h"

#include "obs/trace.h"

namespace gchase {
namespace {

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += std::to_string(value);
}

}  // namespace

bool ProfilingEnabled() {
  return (internal::ObsFlags() & internal::kProfilingFlag) != 0;
}

void SetProfilingEnabled(bool enabled) {
  internal::SetObsFlags(internal::kProfilingFlag, enabled);
}

uint64_t MetricHistogram::ValueAtQuantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * total), at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      const uint64_t upper = BucketUpperBound(i);
      const uint64_t exact_max = max();
      return upper < exact_max ? upper : exact_max;
    }
  }
  // Concurrent recorders can leave count ahead of the buckets; fall back
  // to the exact max rather than claiming an empty tail.
  return max();
}

std::string MetricHistogram::SnapshotJsonObject() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "count", count(), &first);
  AppendField(&out, "p50", ValueAtQuantile(0.50), &first);
  AppendField(&out, "p90", ValueAtQuantile(0.90), &first);
  AppendField(&out, "p99", ValueAtQuantile(0.99), &first);
  AppendField(&out, "max", max(), &first);
  AppendField(&out, "mean", mean(), &first);
  out += "}";
  return out;
}

void MetricHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace gchase
