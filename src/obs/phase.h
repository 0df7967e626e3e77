#ifndef GCHASE_OBS_PHASE_H_
#define GCHASE_OBS_PHASE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>

#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace gchase {

class MetricHistogram;

struct PhaseRow {
  const char* name;  ///< Span name of the B/E events.
  TraceCategory category;
  /// False for phases that run per trigger, unit or batch: too many to
  /// trace without flooding the buffers, so they feed the histogram only.
  bool traced;
  std::optional<PerfPhase> perf;  ///< Hardware-counter attribution.
  const char* histogram;          ///< Latency histogram (ns), or nullptr.
};

/// Every timed phase of the engine, one row each: enumerator, then the
/// PhaseRow fields. The single list of span, histogram and perf names
/// (docs/observability.md mirrors it).
// clang-format off
#define GCHASE_PHASE_TABLE(ROW) \
  ROW(kChaseLoad, "chase.load", kChase, true, PerfPhase::kLoad, nullptr) \
  ROW(kChaseRound, "chase.round", kChase, true, {}, "chase.round_ns") \
  ROW(kChaseDiscovery, "chase.discovery", kChase, true, PerfPhase::kDiscovery, "chase.discovery_ns") \
  ROW(kChaseDiscoveryUnit, "chase.discovery_unit", kChase, false, {}, "chase.discovery_unit_ns") \
  ROW(kChaseDiscoveryMerge, "chase.discovery_merge", kChase, false, {}, "chase.discovery_merge_ns") \
  ROW(kChaseApply, "chase.apply", kChase, true, PerfPhase::kApply, "chase.apply_ns") \
  ROW(kChaseBatchFlush, "chase.batch_flush", kChase, true, {}, "chase.batch_flush_ns") \
  ROW(kChaseHeadCheck, "chase.head_check", kChase, false, {}, "chase.head_check_ns") \
  ROW(kStorageReserve, "storage.reserve", kStorage, true, {}, nullptr) \
  ROW(kStorageGrowDedup, "storage.grow_dedup", kStorage, true, PerfPhase::kDedupGrowth, "storage.dedup_grow_ns") \
  ROW(kStorageBulkLoadCsv, "storage.bulk_load_csv", kStorage, true, PerfPhase::kLoad, nullptr) \
  ROW(kStorageBulkLoadDlgp, "storage.bulk_load_dlgp", kStorage, true, PerfPhase::kLoad, nullptr) \
  ROW(kStorageLoadBatch, "storage.load_batch", kStorage, false, {}, "storage.load_batch_ns") \
  ROW(kStorageEdbSeed, "storage.edb_seed", kStorage, true, {}, nullptr) \
  ROW(kStorageEdbSnapshotWrite, "storage.edb_snapshot_write", kStorage, true, {}, nullptr) \
  ROW(kStorageEdbSnapshotOpen, "storage.edb_snapshot_open", kStorage, true, {}, nullptr) \
  ROW(kDeciderClassify, "decider.classify", kDecider, true, {}, nullptr) \
  ROW(kDeciderAcyclicity, "decider.acyclicity", kDecider, true, {}, nullptr) \
  ROW(kDeciderMfa, "decider.mfa", kDecider, true, {}, nullptr) \
  ROW(kDeciderVariant, "decider.variant", kDecider, true, {}, nullptr) \
  ROW(kDeciderCriticalInstance, "decider.critical_instance", kDecider, true, {}, nullptr) \
  ROW(kDeciderChase, "decider.chase", kDecider, true, {}, nullptr) \
  ROW(kDeciderExact, "decider.exact", kDecider, true, PerfPhase::kDecider, "decider.phase_ns") \
  ROW(kDeciderProbe, "decider.probe", kDecider, true, PerfPhase::kDecider, "decider.phase_ns") \
  ROW(kDeciderProbeRound, "decider.probe_round", kDecider, true, {}, nullptr) \
  ROW(kFuzzTrial, "fuzz.trial", kFuzz, true, {}, nullptr) \
  ROW(kFuzzOracle, "fuzz.oracle", kFuzz, true, {}, nullptr) \
  ROW(kFuzzShrink, "fuzz.shrink", kFuzz, true, {}, nullptr)

#define GCHASE_PHASE_ENUMERATOR(id, ...) id,
enum class Phase : uint8_t { GCHASE_PHASE_TABLE(GCHASE_PHASE_ENUMERATOR) };
#undef GCHASE_PHASE_ENUMERATOR

#define GCHASE_PHASE_ROW(id, name, category, traced, perf, histogram) \
  {name, TraceCategory::category, traced, perf, histogram},
inline constexpr PhaseRow kPhaseTable[] = {GCHASE_PHASE_TABLE(GCHASE_PHASE_ROW)};
#undef GCHASE_PHASE_ROW
// clang-format on

constexpr const PhaseRow& RowOf(Phase phase) {
  return kPhaseTable[static_cast<std::size_t>(phase)];
}

/// The observability-word bits a phase listens to: its trace category
/// (traced rows only), the profiling flag (rows with a histogram) and
/// the perf flag (rows with a perf phase).
constexpr uint32_t PhaseListenMask(Phase phase) {
  const PhaseRow& row = RowOf(phase);
  return (row.traced ? static_cast<uint32_t>(row.category) : 0u) |
         (row.histogram != nullptr ? internal::kProfilingFlag : 0u) |
         (row.perf.has_value() ? internal::kPerfFlag : 0u);
}

/// The one timing primitive. RAII over one phase: reads the steady clock
/// once at entry and once at exit, and that one reading feeds
/// `*seconds += elapsed` when a sink is given (ChaseStats, RoundStats,
/// result fields), the phase's histogram when profiling is on, B/E trace
/// events with the same two timestamps when its category is traced, and
/// the calling thread's perf-counter delta when perf is on. With nothing
/// on and no sink it costs one relaxed load. Each output is decided at
/// entry; a recorded begin always gets its end.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase, uint64_t arg = kNoTraceArg,
                      double* seconds = nullptr)
      : phase_(phase),
        seconds_(seconds),
        listening_(internal::ObsFlags() & PhaseListenMask(phase)) {
    if (listening_ != 0 || seconds_ != nullptr) Begin(arg);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    if (listening_ != 0 || seconds_ != nullptr) End();
  }

 private:
  void Begin(uint64_t arg);
  void End();

  const Phase phase_;
  double* const seconds_;
  uint32_t listening_;  ///< Outputs owed at exit (PhaseListenMask bits).
  /// Resolved at entry: the exit runs in a destructor and must not
  /// allocate (a first lookup registers the histogram).
  MetricHistogram* histogram_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t perf_start_[kNumPerfEvents] = {};
};

}  // namespace gchase

#endif  // GCHASE_OBS_PHASE_H_
