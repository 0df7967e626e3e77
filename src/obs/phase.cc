#include "obs/phase.h"

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace gchase {
namespace {

/// Registry pointers are stable, so each phase resolves its histogram
/// once, on its first profiled exit; phases that never ran profiled
/// stay unregistered and out of the snapshot.
std::atomic<MetricHistogram*> g_histograms[std::size(kPhaseTable)] = {};

MetricHistogram* HistogramOf(Phase phase) {
  std::atomic<MetricHistogram*>& slot =
      g_histograms[static_cast<std::size_t>(phase)];
  MetricHistogram* histogram = slot.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = MetricsRegistry::Global().Histogram(RowOf(phase).histogram);
    slot.store(histogram, std::memory_order_release);
  }
  return histogram;
}

}  // namespace

void PhaseScope::Begin(uint64_t arg) {
  const PhaseRow& row = RowOf(phase_);
  if ((listening_ & internal::kProfilingFlag) != 0) {
    histogram_ = HistogramOf(phase_);
  }
  if ((listening_ & internal::kPerfFlag) != 0 &&
      !internal::ReadPerfGroup(perf_start_)) {
    listening_ &= ~internal::kPerfFlag;
  }
  start_ns_ = SteadyNowNs();
  if ((listening_ & kAllTraceCategories) != 0 &&
      !Tracer::Global().RecordBegin(row.category, row.name, arg, start_ns_)) {
    listening_ &= ~kAllTraceCategories;
  }
}

void PhaseScope::End() {
  const uint64_t end_ns = SteadyNowNs();
  const uint64_t elapsed_ns = end_ns - start_ns_;
  const PhaseRow& row = RowOf(phase_);
  if (seconds_ != nullptr) *seconds_ += static_cast<double>(elapsed_ns) / 1e9;
  if ((listening_ & kAllTraceCategories) != 0) {
    Tracer::Global().RecordEnd(row.category, row.name, end_ns);
  }
  if (histogram_ != nullptr) histogram_->Record(elapsed_ns);
  if ((listening_ & internal::kPerfFlag) != 0) {
    internal::AddPerfDeltas(*row.perf, perf_start_);
  }
}

}  // namespace gchase
