#ifndef GCHASE_OBS_PERF_COUNTERS_H_
#define GCHASE_OBS_PERF_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace gchase {

/// Engine phases that hardware counters are attributed to. Phase scopes
/// may nest across layers (a dedup growth inside an apply flush counts
/// toward both) — attribution is per enclosing scope, not exclusive.
enum class PerfPhase : int {
  kDiscovery = 0,   ///< Trigger discovery (inline or on the pool).
  kApply = 1,       ///< Batched trigger application / instance inserts.
  kDedupGrowth = 2, ///< Dedup hash-table rehash/growth in storage.
  kDecider = 3,     ///< Termination analyses (exact and probe).
  kLoad = 4,        ///< EDB bulk load and instance seeding.
};

inline constexpr int kNumPerfPhases = 5;

/// Hardware/software events sampled per phase.
enum PerfEventKind : int {
  kPerfCycles = 0,
  kPerfInstructions = 1,
  kPerfCacheReferences = 2,
  kPerfCacheMisses = 3,
  kPerfBranchMisses = 4,
  kPerfTaskClockNs = 5,
};

inline constexpr int kNumPerfEvents = 6;

/// "discovery", "apply", "dedup_growth", "decider" or "load".
const char* PerfPhaseName(PerfPhase phase);

namespace internal {
/// Master switch, exposed so the inert path of PerfPhaseScope is a
/// single inlined relaxed load (same discipline as the tracer mask).
extern std::atomic<bool> g_perf_enabled;
}  // namespace internal

/// True when EnablePerfCounters() succeeded and scopes are recording.
inline bool PerfCountersEnabled() {
  return internal::g_perf_enabled.load(std::memory_order_relaxed);
}

/// Probes perf_event_open on the calling thread and, on success, turns
/// phase attribution on. Degrades gracefully and never errors: on
/// non-Linux builds, in seccomp'd/containerized CI, or under a strict
/// /proc/sys/kernel/perf_event_paranoid the probe fails, counters stay
/// off (zero overhead beyond the one relaxed load per scope), and the
/// snapshot reports {"available": false, "reason": ...}. Always
/// registers the "perf" section on MetricsRegistry::Global() so the
/// snapshot shape is stable either way. Returns availability.
bool EnablePerfCounters();

/// Stops recording (thread-local groups stay open for cheap re-enable).
void DisablePerfCounters();

/// True when the probe in EnablePerfCounters() succeeded.
bool PerfCountersAvailable();

/// True when the full hardware group (cycles leader) opened. False when
/// counters run in the software-only fallback: PMU-less containers get a
/// task-clock-only group so phases still carry on-CPU time, but cycles /
/// instructions / cache events (and thus ipc, cache_miss_rate) stay 0.
bool PerfHardwareEventsAvailable();

/// Why counters (or, in the software-only fallback, the hardware group)
/// are unavailable; "" when fully available or never enabled.
std::string PerfUnavailableReason();

/// Aggregate for one phase, summed over every completed scope on every
/// thread. A value stays 0 when its event could not be opened.
struct PerfPhaseTotals {
  uint64_t scopes = 0;
  uint64_t events[kNumPerfEvents] = {};
};
PerfPhaseTotals PerfTotalsForPhase(PerfPhase phase);

/// One JSON value for the metrics snapshot's "perf" section:
/// {"available": bool, "hardware_events": bool, "reason"/
/// "hardware_reason": "..."?, "phases": {"discovery":
/// {"scopes": n, "cycles": c, "instructions": i, "cache_references": r,
/// "cache_misses": m, "branch_misses": b, "task_clock_ns": t,
/// "ipc": x.xxxx, "cache_miss_rate": x.xxxx}, ...}}. Phases with zero
/// completed scopes are still listed (all-zero) so consumers can rely
/// on the keys.
std::string PerfSnapshotJson();

/// Zeroes the per-phase aggregates (tests; quiescent callers only).
void ResetPerfCounters();

/// RAII phase attribution: when counters are enabled at construction,
/// reads the calling thread's counter group at entry and exit and adds
/// the deltas to the phase's global aggregate. Disabled (or on a thread
/// whose group failed to open) it is inert after one relaxed load.
class PerfPhaseScope {
 public:
  explicit PerfPhaseScope(PerfPhase phase) {
    if (PerfCountersEnabled()) Begin(phase);
  }

  PerfPhaseScope(const PerfPhaseScope&) = delete;
  PerfPhaseScope& operator=(const PerfPhaseScope&) = delete;

  ~PerfPhaseScope() {
    if (active_) End();
  }

 private:
  void Begin(PerfPhase phase);
  void End();

  uint64_t start_[kNumPerfEvents] = {};
  PerfPhase phase_ = PerfPhase::kDiscovery;
  bool active_ = false;
};

// Span + phase attribution in one line. Compiled out together with the
// trace macros under GCHASE_DISABLE_TRACING (the switch exists to rule
// all observability out of perf forensics). Fixed four-argument shape;
// trace.h's concat helpers only exist when tracing is compiled in, so
// this defines its own.
#if !defined(GCHASE_DISABLE_TRACING)

#define GCHASE_PERF_CONCAT_INNER_(a, b) a##b
#define GCHASE_PERF_CONCAT_(a, b) GCHASE_PERF_CONCAT_INNER_(a, b)

#define GCHASE_TRACE_SPAN_PERF(category, name, arg, phase)             \
  GCHASE_TRACE_SPAN(category, name, arg);                              \
  ::gchase::PerfPhaseScope GCHASE_PERF_CONCAT_(gchase_perf_scope_,     \
                                               __COUNTER__)(phase)

#else  // GCHASE_DISABLE_TRACING

#define GCHASE_TRACE_SPAN_PERF(category, name, arg, phase) \
  do {                                                     \
  } while (0)

#endif  // GCHASE_DISABLE_TRACING

}  // namespace gchase

#endif  // GCHASE_OBS_PERF_COUNTERS_H_
