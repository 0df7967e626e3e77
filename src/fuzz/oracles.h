#ifndef GCHASE_FUZZ_ORACLES_H_
#define GCHASE_FUZZ_ORACLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/governor.h"
#include "fuzz/fuzz_case.h"

namespace gchase {

/// The differential/metamorphic oracles. Each one checks an invariant
/// the paper (or the engine's determinism contract) guarantees for
/// *every* input, which is what turns random (Σ, D) pairs into test
/// cases with built-in ground truth. docs/fuzzing.md maps each oracle
/// to the theorem it operationalizes.
enum class OracleId : uint32_t {
  /// CT_o ⊆ CT_so (Grahne & Onet; paper §2): an oblivious chase that
  /// terminates on D forces the semi-oblivious chase to terminate on D,
  /// with no more atoms and no more applied triggers. Also cross-checks
  /// the two deciders' verdicts on the critical instance.
  kVariantContainment = 0,
  /// Theorems 2 and 4 via the critical-instance reduction: the decider's
  /// verdict must agree with a governed bounded chase of the critical
  /// instance — "terminates" with a probe that runs into its caps, or
  /// "diverges" with a probe that halts, is a hard failure.
  kDeciderVsProbe = 1,
  /// Theorem 1: on simple-linear sets rich/weak acyclicity *characterize*
  /// CT_o/CT_so — RA/WA verdicts must match the decider and a bounded
  /// critical-instance probe exactly. On every class RA/WA remain sound
  /// (acyclic ⇒ terminating), which is checked too.
  kSyntacticVsDecider = 2,
  /// Engine vs reference: the engine is bit-identical to the reference
  /// chase (fuzz/reference_chase.h) — same outcome, instance atom by atom,
  /// counters, per-rule and per-round stats — uncapped and under
  /// step/atom/null/hom cap regimes tightened around the base run's own
  /// footprint.
  kReferenceTwin = 3,
  /// Engine metamorphic: a chase result round-trips through storage/io
  /// (write → parse → atom-for-atom correspondence, nulls mapped to
  /// their reserved '_:n' constants).
  kIoRoundTrip = 4,
  /// Engine metamorphic: restricted-chase results under different fair
  /// trigger orders are homomorphically equivalent whenever both orders
  /// terminate (each result is a universal model of (Σ, D)). Also pins
  /// engine-vs-reference bit-identity across the full variant × order
  /// grid (counters, per-rule/per-round stats, instance ids).
  kOrderEquivalence = 5,
  /// Engine metamorphic: memory governance never corrupts a run. Per
  /// variant, against an uncapped base run: (a) an injected memory-budget
  /// fault at sampled kAllocation ordinals stops the run with
  /// kMemoryBudgetExceeded and an instance that is a bit-exact prefix of
  /// the base (ordinals past the run's last checkpoint must
  /// leave it identical to the base instead); (b) a run under a real byte
  /// budget of half the base run's peak either still terminates
  /// identically or stops on the budget with a bit-exact prefix.
  kMemoryCapTwin = 6,
};

inline constexpr uint32_t kNumOracles = 7;

/// Stable kebab-case oracle name (used in repro metadata, JSON reports
/// and CLI flags).
const char* OracleName(OracleId oracle);

/// Inverse of OracleName.
std::optional<OracleId> OracleByName(std::string_view name);

/// All oracles, in id order.
std::vector<OracleId> AllOracles();

/// How one oracle evaluation ended. kInconclusive means a budget
/// (deadline, cancellation, search caps) cut the check short before it
/// could compare anything — never a failure, per the governor contract
/// that aborted probes are not divergence evidence.
enum class OracleOutcome { kPass, kViolation, kInconclusive };

/// Returns "pass", "violation" or "inconclusive".
const char* OracleOutcomeName(OracleOutcome outcome);

struct OracleResult {
  OracleOutcome outcome = OracleOutcome::kPass;
  /// Human-readable explanation of a violation (or of what made the
  /// check inconclusive); empty on a pass.
  std::string detail;
};

/// Budgets for one oracle evaluation. The count caps are sized for
/// fuzz-trial-scale inputs; the deadline bounds the wall clock of the
/// whole evaluation (diverging probes are budgeted, not hung).
struct OracleOptions {
  /// Caps for each bounded chase run the oracle performs.
  uint64_t max_atoms = 1u << 13;
  uint64_t max_steps = 1u << 15;
  uint64_t max_hom_discoveries = 1ull << 20;
  uint64_t max_join_work = 1ull << 24;
  /// Cap on candidate visits per homomorphic-equivalence search (CQ
  /// evaluation is exponential in the worst case).
  uint64_t max_equivalence_visits = 1ull << 22;
  /// Wall-clock budget for the whole evaluation; sliced internally
  /// across the oracle's runs. Expiry ⇒ kInconclusive.
  Deadline deadline;
  CancellationToken cancel;
};

/// Evaluates one oracle on one case. Never throws, never hangs: every
/// internal run is governed by `options.deadline`.
OracleResult RunOracle(OracleId oracle, const FuzzCase& fuzz_case,
                       const OracleOptions& options = {});

}  // namespace gchase

#endif  // GCHASE_FUZZ_ORACLES_H_
