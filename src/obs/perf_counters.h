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

/// True when EnablePerfCounters() succeeded and scopes are recording:
/// one bit of the observability word (obs/trace.h).
inline bool PerfCountersEnabled() {
  return (internal::ObsFlags() & internal::kPerfFlag) != 0;
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

namespace internal {
/// PhaseScope's perf hooks. ReadPerfGroup reads the calling thread's
/// counter group (opening it on first use) into `values` and returns
/// false when the thread has none; AddPerfDeltas reads it again and adds
/// the deltas since `start` to `phase`, counting one completed scope.
bool ReadPerfGroup(uint64_t values[kNumPerfEvents]);
void AddPerfDeltas(PerfPhase phase, const uint64_t start[kNumPerfEvents]);
}  // namespace internal

}  // namespace gchase

#endif  // GCHASE_OBS_PERF_COUNTERS_H_
