#ifndef GCHASE_TERMINATION_DECIDER_H_
#define GCHASE_TERMINATION_DECIDER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "base/status.h"
#include "chase/chase.h"
#include "model/tgd.h"
#include "model/vocabulary.h"
#include "termination/critical_instance.h"
#include "termination/pump_detector.h"

namespace gchase {

/// Verdict of a termination analysis.
enum class TerminationVerdict {
  kTerminating,     ///< The chase terminates for every database.
  kNonTerminating,  ///< Some database (the critical one) has an infinite chase.
  kUnknown,         ///< Resource caps hit without a proof either way.
};

/// Returns "terminating", "non-terminating" or "unknown".
const char* TerminationVerdictName(TerminationVerdict verdict);

/// Structured detail behind a kUnknown verdict: why the analysis gave up,
/// in which phase, and how long it had run — enough for a caller to
/// decide whether to retry with a bigger budget, fall back, or move on.
struct UnknownDetail {
  StopReason reason = StopReason::kNone;
  /// Which analysis phase gave up: "exact" (the full-cap decider chase)
  /// or "probe" (the bounded fallback). Empty when the verdict is not
  /// kUnknown.
  std::string phase;
  /// Wall-clock seconds the analysis had spent when it gave up.
  double elapsed_seconds = 0.0;
};

/// Resource policy for one DecideTermination call.
struct DeciderOptions {
  /// Caps on the exploratory chase of the critical instance. The chase of
  /// the critical instance either completes below the caps (terminating),
  /// is interrupted by a verified pump (non-terminating), or exhausts the
  /// caps (unknown).
  uint64_t max_atoms = 1u << 20;
  uint64_t max_steps = 1u << 22;
  /// Cap on homomorphisms enumerated during trigger discovery (see
  /// ChaseOptions::max_hom_discoveries).
  uint64_t max_hom_discoveries = 1ull << 24;
  /// Cap on join-search work (see ChaseOptions::max_join_work).
  uint64_t max_join_work = 1ull << 28;
  /// Unused: the exploratory chase discovers serially. Kept only because
  /// the frozen benchmark (perfbench/) sets it; remove it at the next
  /// benchmark change. Never forwarded to the chase.
  uint32_t discovery_threads = 1;
  /// Byte budget for the exploratory chase's retained storage (see
  /// ChaseOptions::max_memory_bytes; 0 = unlimited). A memory trip
  /// downgrades the verdict to kUnknown (reason kMemory) — an
  /// out-of-budget probe of the critical instance is NOT evidence of
  /// divergence, exactly as a deadline expiry is not.
  uint64_t max_memory_bytes = 0;
  /// Externally owned budget shared across calls (see
  /// ChaseOptions::memory_budget). DecideTerminationWithFallback forwards
  /// it to both phases: the exact chase's storage dies before the probe
  /// starts, so the sequential phases share the headroom rather than
  /// doubling the footprint.
  std::shared_ptr<MemoryBudget> memory_budget;
  /// Pump-detection tuning.
  PumpDetectorOptions pump;
  /// Use the paper's standard-database critical instance ({*,0,1}).
  bool standard_database = false;
  /// Constants excluded from the critical instance's domain (see
  /// CriticalInstanceOptions::excluded_constants; used by the looping
  /// operator's anchor).
  std::vector<Term> excluded_constants;
  /// Wall-clock budget for the decision. On expiry the exploratory chase
  /// stops cooperatively and the verdict downgrades to kUnknown (reason
  /// kDeadline) with partial stats intact — the call never hangs and
  /// never fails. Default: infinite.
  Deadline deadline;
  /// External cancellation; downgrades to kUnknown (reason kCancelled).
  CancellationToken cancel;
  /// Test-only fault injection, forwarded to the exploratory chase (and
  /// by DecideTerminationWithFallback to its exact phase only, so the
  /// fallback path is deterministically testable).
  FaultInjector fault_injector;
};

/// Outcome details of one decision.
struct DeciderResult {
  TerminationVerdict verdict = TerminationVerdict::kUnknown;
  /// Why/where the analysis gave up when verdict == kUnknown.
  UnknownDetail unknown;
  /// Which cascade phase produced the verdict: "exact" for a plain
  /// DecideTermination call, "probe" when the bounded fallback of
  /// DecideTerminationWithFallback decided.
  std::string phase = "exact";
  /// Present when verdict == kNonTerminating.
  std::optional<PumpCertificate> certificate;
  /// Human-readable rendering of the certificate ("" unless
  /// non-terminating): the pumped atoms and the rules of the replayable
  /// segment.
  std::string certificate_text;
  /// Chase statistics of the exploration.
  uint64_t chase_atoms = 0;
  uint64_t applied_triggers = 0;
  uint64_t hom_discoveries = 0;
  uint64_t join_work = 0;
  uint64_t replays_attempted = 0;
  /// Full per-rule / per-round observability of the exploratory chase.
  ChaseStats chase_stats;
};

/// Decides all-instance chase termination of `rules` for the oblivious or
/// semi-oblivious chase (Theorems 2 and 4 of the paper, operationalized).
///
/// Method: by the critical-instance reduction (Marnette; Grahne & Onet),
/// Σ ∈ CT_o (resp. CT_so) iff the oblivious (resp. semi-oblivious) chase
/// of the critical instance terminates. The decider runs that chase with
/// a PumpDetector attached: a verified pump proves non-termination; a
/// completed chase proves termination; exhausted caps yield kUnknown.
/// For linear and guarded rules the type space the detector searches is
/// finite, so on the workloads of this repository the caps are never the
/// binding constraint (see EXPERIMENTS.md for the measured behaviour).
///
/// `variant` must be kOblivious or kSemiOblivious: the reduction (and the
/// paper's decidability results) do not apply to the restricted chase.
/// `vocabulary` is the rule set's naming context; the critical constant
/// is interned into it.
StatusOr<DeciderResult> DecideTermination(const RuleSet& rules,
                                          Vocabulary* vocabulary,
                                          ChaseVariant variant,
                                          const DeciderOptions& options = {});

/// Graceful-degradation cascade: exact decider → bounded probe → unknown.
///
/// Phase 1 ("exact") runs DecideTermination under 3/4 of the remaining
/// budget. If it concludes, done. If it times out — or gives up on a
/// count cap — phase 2 ("probe") retries with sharply bounded caps and
/// the rest of the budget: a cheap run that still yields *sound* verdicts
/// (a chase that completes under any cap proves termination; a verified
/// pump proves non-termination) and otherwise returns kUnknown with the
/// reason, phase and elapsed time filled in. Cancellation skips the
/// fallback — the user asked to stop, not to degrade.
///
/// Per-item downgrades make batch analyses total: one pathological rule
/// set costs its time slice and reports kUnknown instead of hanging the
/// batch.
StatusOr<DeciderResult> DecideTerminationWithFallback(
    const RuleSet& rules, Vocabulary* vocabulary, ChaseVariant variant,
    const DeciderOptions& options = {});

}  // namespace gchase

#endif  // GCHASE_TERMINATION_DECIDER_H_
