#ifndef GCHASE_CHASE_JOIN_PLAN_H_
#define GCHASE_CHASE_JOIN_PLAN_H_

#include <cstdint>
#include <vector>

#include "model/tgd.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace gchase {

/// Compiled join plans for set-at-a-time trigger discovery.
///
/// A plan freezes, once per chase, everything about a rule body that the
/// backtracking engine re-derives at every search node: which positions
/// of each conjunct are constants, which carry variables already bound by
/// earlier conjuncts (and the binding-row slot those variables live in),
/// and which positions can seed an index probe. Execution is then a flat
/// columnar pipeline (see PlanExecutor) instead of a recursive search.
///
/// Bit-identity contract. A plan unit must produce the same rows, in the
/// same order, at the same join work as the backtracking search over the
/// same unit, because the reference chase (fuzz/reference_chase.h)
/// enumerates with that search and the chase's restricted variant is
/// order-sensitive. Two facts make that possible without simulating the
/// search:
///
///  1. For a fixed conjunct order, the sequence of complete matches is
///     the id-lexicographic order of the matched atoms — independent of
///     which posting list supplies the candidates, since every posting
///     list is append-ordered by AtomId and unification filters the same
///     match set out of any sound candidate source.
///  2. The backtracking engine's dynamic conjunct choice is made per
///     search node, but for bodies of at most two conjuncts the only
///     choice point is at depth zero under the empty binding, where the
///     selectivity estimates depend on the instance alone — so one
///     replica of that argmin per rule per round pins the entire
///     enumeration order.
///
/// Rules with three or more body conjuncts can re-choose conjuncts per
/// branch mid-search; reproducing that order would mean re-running the
/// same per-node estimates the plan exists to avoid, so such bodies are
/// marked non-plannable and stay on the backtracking path (the
/// "fallback" the per-round stats expose). Guarded-rule workloads are
/// dominated by one- and two-conjunct bodies, so the plannable fraction
/// is the hot one.
struct PlanOp {
  /// How one position of a conjunct pattern constrains a candidate atom.
  enum class Kind : uint8_t {
    kCheckConst,  ///< Position must equal a constant of the pattern.
    kBindVar,     ///< First occurrence of a still-free variable: bind it.
    kCheckVar,    ///< Variable already bound (earlier conjunct or earlier
                  ///< position of this one): must equal its image.
  };
  Kind kind = Kind::kBindVar;
  uint32_t position = 0;
  Term constant;      ///< For kCheckConst.
  uint32_t slot = 0;  ///< Binding-row column for kBindVar / kCheckVar.
};

/// An index-probe site for one conjunct: a position whose image is known
/// before the conjunct is matched (a constant, or a variable bound by an
/// earlier conjunct of the order). The executor probes each site's
/// posting list and scans the smallest — exactly the selectivity rule the
/// backtracking engine applies per node, so the visit charge matches.
struct ProbeSite {
  uint32_t position = 0;
  bool is_constant = false;
  Term constant;      ///< For is_constant.
  uint32_t slot = 0;  ///< Binding-row column, otherwise.
};

/// One conjunct of a compiled order, with its unification program and
/// probe sites resolved against the variables bound by earlier steps.
struct PlanStep {
  uint32_t conjunct = 0;  ///< Index into the rule body.
  PredicateId predicate = 0;
  uint32_t arity = 0;
  std::vector<PlanOp> ops;        ///< Per position, ascending.
  std::vector<ProbeSite> probes;  ///< Probe-eligible positions, ascending.
};

/// Depth-zero selectivity descriptor for one conjunct: the constant
/// positions the backtracking engine would probe under the empty binding.
/// (Variables are all unbound at depth zero, so constants are the only
/// probe sites that participate in the first argmin.)
struct SeedEstimate {
  PredicateId predicate = 0;
  std::vector<ProbeSite> const_probes;
};

/// The compiled plan of one rule. For a plannable body of n conjuncts
/// (n <= 2), `orders[first]` holds the full step sequence that starts
/// with conjunct `first` — both rotations are precompiled so the
/// per-round order choice is a lookup, not a recompile. The pivot of a
/// discovery unit selects match ranges, not the order (ranges are keyed
/// by conjunct index, so they follow the conjunct wherever the order
/// places it).
struct RuleJoinPlan {
  bool plannable = false;
  /// Stable reason string for stats/logging when not plannable.
  const char* fallback_reason = "";
  uint32_t body_size = 0;
  uint32_t num_slots = 0;  ///< Binding-row width (the rule's variable count).
  std::vector<std::vector<PlanStep>> orders;  ///< Indexed by first conjunct.
  std::vector<SeedEstimate> seeds;            ///< Indexed by conjunct.
};

/// The per-rule plans of one rule set, compiled once at chase start.
class JoinPlanSet {
 public:
  static JoinPlanSet Compile(const RuleSet& rules);

  const RuleJoinPlan& plan(uint32_t rule) const { return plans_[rule]; }
  uint32_t size() const { return static_cast<uint32_t>(plans_.size()); }
  /// Number of rules with a usable plan.
  uint32_t plannable_rules() const { return plannable_; }

 private:
  std::vector<RuleJoinPlan> plans_;
  uint32_t plannable_ = 0;
};

/// Replica of the backtracking engine's depth-zero conjunct choice for
/// `plan` against the current instance: smallest candidate estimate wins,
/// ties to the lower conjunct index, estimates improved by constant
/// positions exactly as the search's per-node planner computes them.
/// Returns the conjunct index the search would match first — the plan
/// order to execute this round so the two engines enumerate identically.
uint32_t ChooseFirstConjunct(const Instance& instance,
                             const RuleJoinPlan& plan);

}  // namespace gchase

#endif  // GCHASE_CHASE_JOIN_PLAN_H_
