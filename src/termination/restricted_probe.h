#ifndef GCHASE_TERMINATION_RESTRICTED_PROBE_H_
#define GCHASE_TERMINATION_RESTRICTED_PROBE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "model/tgd.h"
#include "model/vocabulary.h"

namespace gchase {

/// Options for ProbeRestrictedTermination.
struct RestrictedProbeOptions {
  /// Random trigger orders sampled in addition to FIFO and datalog-first.
  uint32_t num_random_orders = 8;
  uint64_t seed = 1;
  /// Caps per run: a run hitting a cap counts as "diverged (at cap)".
  uint64_t max_atoms = 1u << 16;
  uint64_t max_steps = 1u << 18;
  uint64_t max_hom_discoveries = 1ull << 22;
  uint64_t max_join_work = 1ull << 26;
  /// Byte budget per sampled run (see ChaseOptions::max_memory_bytes;
  /// 0 = unlimited). A run stopped by it joins runs_aborted — memory
  /// exhaustion, like a deadline, is evidence of nothing.
  uint64_t max_memory_bytes = 0;
  /// Externally owned budget shared by all sampled runs (see
  /// ChaseOptions::memory_budget). A run stopped by it joins
  /// runs_aborted too.
  std::shared_ptr<MemoryBudget> memory_budget;
  /// Probe the critical instance when true (default); otherwise the
  /// caller-provided database.
  bool use_critical_instance = true;
  /// Wall-clock budget shared by all sampled runs. Once it expires, the
  /// run in flight stops at its next checkpoint and every remaining run
  /// returns immediately; aborted runs are counted separately and are
  /// *not* evidence of divergence.
  Deadline deadline;
  /// External cancellation; same accounting as the deadline.
  CancellationToken cancel;
};

/// What the probe observed.
struct RestrictedProbeResult {
  bool fifo_terminated = false;
  bool datalog_first_terminated = false;
  uint32_t random_orders_terminated = 0;
  uint32_t random_orders_diverged = 0;
  /// Sampled runs cut short by the deadline or cancellation (neither
  /// terminated nor diverged — no evidence either way).
  uint32_t runs_aborted = 0;
  /// Why runs were aborted, when runs_aborted > 0.
  StopReason stop_reason = StopReason::kNone;
  /// True when at least one sampled order terminated and at least one hit
  /// the cap: direct evidence that the restricted chase's termination is
  /// order-dependent on this input (CT_rest,∀ vs CT_rest,∃ differ).
  /// Aborted runs contribute to neither side.
  bool order_sensitive = false;
};

/// Experimental probe for restricted-chase termination — the problem the
/// paper leaves open ("Future Work": even for single-head linear TGDs
/// only preliminary results exist). This is *not* a decision procedure:
///
///  - the critical-instance reduction is unsound for the restricted
///    chase (a set may restricted-terminate on every database while some
///    other variant diverges on the critical one, and vice versa);
///  - a capped run that did not finish is evidence, not proof.
///
/// What the probe does give, soundly: if one sampled fair order
/// terminates and another diverges past any cap you care to set on the
/// same database, the set is order-sensitive there — the phenomenon that
/// separates the ∀-sequence from the ∃-sequence problem and makes the
/// restricted case genuinely harder (see workload
/// `restricted_order_sensitive` and bench_e8_restricted_probe).
StatusOr<RestrictedProbeResult> ProbeRestrictedTermination(
    const RuleSet& rules, Vocabulary* vocabulary,
    const std::vector<Atom>& database = {},
    const RestrictedProbeOptions& options = {});

}  // namespace gchase

#endif  // GCHASE_TERMINATION_RESTRICTED_PROBE_H_
