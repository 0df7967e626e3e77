#include "chase/plan_executor.h"

#include <algorithm>

#include "base/check.h"
#include "storage/homomorphism.h"

namespace gchase {

namespace {

/// The semi-naive range of a conjunct in a (rule, pivot) discovery unit —
/// identical to the ranges a backtracking search unit is given.
MatchRange RangeFor(uint32_t conjunct, uint32_t pivot) {
  if (conjunct < pivot) return MatchRange::kOldOnly;
  if (conjunct == pivot) return MatchRange::kDeltaOnly;
  return MatchRange::kAll;
}

}  // namespace

PlanExecutor::UnitStatus PlanExecutor::ExecuteUnit(
    const RuleJoinPlan& plan, uint32_t pivot, uint32_t first, AtomId watermark,
    uint64_t max_charge, uint64_t found_cap, const RunGovernor* governor,
    BindingSegment* scratch, BindingSegment* out) const {
  UnitStatus status;
  GCHASE_CHECK(plan.plannable && first < plan.orders.size());
  const std::vector<PlanStep>& steps = plan.orders[first];

  out->Clear();
  out->SetWidth(plan.num_slots);

  // One mutable row with unification-trail undo, exactly like the
  // backtracking search's binding vector: ops bind into it, failures and
  // completed appends roll back to the row's pre-candidate state.
  std::vector<Term> row(plan.num_slots, UnboundTerm());
  std::vector<uint32_t> trail;
  const auto undo = [&]() {
    for (uint32_t slot : trail) row[slot] = UnboundTerm();
    trail.clear();
  };
  const auto unify = [&](const PlanStep& step, AtomId id) -> bool {
    const AtomView fact = instance_.atom(id);
    for (const PlanOp& op : step.ops) {
      const Term image = fact.args[op.position];
      switch (op.kind) {
        case PlanOp::Kind::kCheckConst:
          if (op.constant != image) return false;
          break;
        case PlanOp::Kind::kBindVar:
          row[op.slot] = image;
          trail.push_back(op.slot);
          break;
        case PlanOp::Kind::kCheckVar:
          if (row[op.slot] != image) return false;
          break;
      }
    }
    return true;
  };

  // Cooperative governor checkpoints, on roughly the backtracking
  // engine's 1024-visit cadence. Trip points need not be bit-identical
  // across engines — an aborted discovery phase is discarded wholesale —
  // but the cadence keeps a pathological unit from outliving a deadline.
  uint64_t next_poll = 1024;
  uint64_t scan_ticks = 0;
  const auto tripped = [&]() -> bool {
    if (governor == nullptr) return false;
    if (governor->Check() == GovernorState::kOk) return false;
    status.governor_tripped = true;
    return true;
  };
  const auto poll_charge = [&]() -> bool {
    if (status.charge < next_poll) return false;
    next_poll = status.charge + 1024;
    return tripped();
  };

  // --- Seed step: replicate the search's depth-zero source selection.
  // All probe sites of the first step are constants (no variable is bound
  // yet), and the estimates depend only on the instance — the same argmin
  // ChooseFirstConjunct ran to pick `first`. The charge is the chosen
  // list's *unclipped* length: the backtracking engine visits every
  // candidate and range-filters per candidate, and join-work parity is
  // what keeps cap-adjacent behavior identical across engines.
  const PlanStep& seed = steps[0];
  const MatchRange seed_range = RangeFor(seed.conjunct, pivot);
  const std::vector<AtomId>* seed_list =
      &instance_.AtomsWithPredicate(seed.predicate);
  for (const ProbeSite& probe : seed.probes) {
    GCHASE_CHECK(probe.is_constant);
    const std::vector<AtomId>& list = instance_.AtomsWithTermAt(
        seed.predicate, probe.position, probe.constant);
    if (list.size() < seed_list->size()) seed_list = &list;
  }
  const PostingView source = ClipPostings(*seed_list, seed_range, watermark);
  status.charge += source.full_size;
  if (status.charge > max_charge) {
    status.budget_exhausted = true;
    return status;
  }
  if (poll_charge()) return status;

  const bool single_step = steps.size() == 1;
  BindingSegment* sink = single_step ? out : scratch;
  if (!single_step) {
    scratch->Clear();
    scratch->SetWidth(plan.num_slots);
  }
  for (const AtomId* it = source.begin; it != source.end; ++it) {
    if ((++scan_ticks & 1023u) == 0 && tripped()) return status;
    if (unify(seed, *it)) {
      sink->AppendRow(row.data());
      if (single_step) {
        ++status.rows;
        if (status.rows >= found_cap) {
          undo();
          status.budget_exhausted = true;
          return status;
        }
      }
    }
    undo();
  }
  if (single_step) return status;

  // --- Extension step: per seed row, replicate the search's per-node
  // source selection (predicate list vs. the most selective bound/const
  // position, strictly-smaller wins, earliest position on ties), charge
  // the unclipped length, and scan only the range-clipped span. Rows are
  // expanded in seed order with candidates in id order, which is exactly
  // the DFS leaf order of the backtracking search under this conjunct
  // order.
  const PlanStep& ext = steps[1];
  const MatchRange ext_range = RangeFor(ext.conjunct, pivot);
  // The predicate list and its clipped view are loop-invariant across
  // rows (same predicate, range, watermark); only position probes depend
  // on the row. Probing compares raw (unclipped) list lengths — the same
  // estimates the backtracking planner uses — so the single binary-search
  // clip is deferred to the one list that actually gets scanned.
  const std::vector<AtomId>& ext_pred_list =
      instance_.AtomsWithPredicate(ext.predicate);
  const PostingView ext_pred_view =
      ClipPostings(ext_pred_list, ext_range, watermark);
  for (uint64_t r = 0; r < scratch->rows(); ++r) {
    const Term* base = scratch->row(r);
    std::copy(base, base + plan.num_slots, row.begin());
    const std::vector<AtomId>* best = &ext_pred_list;
    for (const ProbeSite& probe : ext.probes) {
      const Term image = probe.is_constant ? probe.constant : row[probe.slot];
      const std::vector<AtomId>& list =
          instance_.AtomsWithTermAt(ext.predicate, probe.position, image);
      if (list.size() < best->size()) best = &list;
    }
    status.charge += best->size();
    if (status.charge > max_charge) {
      status.budget_exhausted = true;
      return status;
    }
    if (poll_charge()) return status;
    const PostingView ext_source = best == &ext_pred_list
                                       ? ext_pred_view
                                       : ClipPostings(*best, ext_range, watermark);
    for (const AtomId* it = ext_source.begin; it != ext_source.end; ++it) {
      if ((++scan_ticks & 1023u) == 0 && tripped()) return status;
      if (unify(ext, *it)) {
        out->AppendRow(row.data());
        ++status.rows;
        undo();
        if (status.rows >= found_cap) {
          status.budget_exhausted = true;
          return status;
        }
      } else {
        undo();
      }
    }
  }
  return status;
}

}  // namespace gchase
