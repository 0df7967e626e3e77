// Trigger application: ChaseRun::ApplyPendingBatch, the one apply path,
// and the HeadBlock flush. Split from chase.cc so the executor can evolve
// (and be unit-tested through HeadBlock) without touching discovery.
//
// Staging head atoms for a bulk flush must never change the result: the
// instance, atom ids, counters and abort points are those of inserting
// every head atom the moment its trigger fires, in trigger order — the
// semantics fuzz/reference_chase.cc restates naively and the fuzz
// oracles compare against. Every place the code below departs from
// eager insertion is annotated with why it cannot change the result.

#include "chase/batch_apply.h"

#include <algorithm>

#include "chase/chase.h"
#include "obs/phase.h"
#include "storage/instance.h"

namespace gchase {

uint32_t HeadBlock::FlushInto(Instance* instance) const {
  // Single-row fast path: restricted rounds flush before every head
  // check, so most of their blocks hold exactly one atom — skip the bulk
  // pre-sizing ceremony and insert directly (identical id/dedup
  // semantics; TryAddBatch degenerates to this for n == 1).
  if (atoms_ == 1) {
    const Segment& segment = segments_.front();
    instance->TryAddTerms(segment.predicate, terms_.data() + segment.offset,
                          segment.arity);
    return 1;
  }
  for (const Segment& segment : segments_) {
    instance->TryAddBatch(segment.predicate, terms_.data() + segment.offset,
                          segment.arity, segment.rows);
  }
  return static_cast<uint32_t>(segments_.size());
}

std::pair<AtomId, bool> ChaseRun::InsertHeadAtom(const Atom& head) {
  head_scratch_.clear();
  for (Term t : head.args) {
    head_scratch_.push_back(t.IsVariable() ? extended_scratch_[t.index()] : t);
  }
  return instance_.TryAddTerms(head.predicate, head_scratch_.data(),
                               head.arity());
}

bool ChaseRun::ApplyDirect(const PendingTrigger& trigger,
                           const AtomObserver& observer,
                           ChaseOutcome* outcome) {
  const Tgd& rule = rules_.rule(trigger.rule);
  const bool track = options_.track_provenance;
  const uint32_t trigger_index = static_cast<uint32_t>(triggers_.size());
  AtomId parent_id = kNoAtomId;
  uint32_t parent_depth = 0;
  TriggerRecord* record = nullptr;
  if (track) {
    record = &triggers_.emplace_back();
    record->rule = trigger.rule;
    record->binding = trigger.binding;
    record->body_atoms.reserve(rule.body().size());
    for (const Atom& body_atom : rule.body()) {
      head_scratch_.clear();
      for (Term t : body_atom.args) {
        head_scratch_.push_back(t.IsVariable() ? trigger.binding[t.index()]
                                               : t);
      }
      const std::optional<AtomId> id = instance_.FindTerms(
          body_atom.predicate, head_scratch_.data(), body_atom.arity());
      GCHASE_CHECK(id.has_value());
      record->body_atoms.push_back(*id);
    }
    for (VarId v : rule.existential_variables()) {
      record->created_nulls.push_back(extended_scratch_[v]);
    }
    parent_id = record->body_atoms[rule.guard_index().value_or(0)];
    parent_depth = provenance_[parent_id].depth;
  }
  new_atoms_scratch_.clear();
  bool over_atom_cap = false;
  for (uint32_t h = 0; h < rule.head().size(); ++h) {
    const auto [id, inserted] = InsertHeadAtom(rule.head()[h]);
    if (inserted) new_atoms_scratch_.push_back(id);
    if (track) {
      record->produced.push_back(id);
      if (inserted) {
        provenance_.push_back(AtomProvenance{trigger.rule, h, parent_id,
                                             parent_depth + 1, trigger_index});
        GCHASE_CHECK(provenance_.size() == instance_.size());
      }
    }
    if (instance_.size() > options_.max_atoms) {
      over_atom_cap = true;
      break;
    }
  }
  // Notify only now that the trigger record is complete: observers (e.g.
  // the pump detector) follow provenance into triggers().
  if (observer != nullptr) {
    for (AtomId id : new_atoms_scratch_) {
      if (!observer(id)) {
        abort_requested_ = true;
        *outcome = ChaseOutcome::kAborted;
        return false;
      }
    }
  }
  if (over_atom_cap) {
    *outcome = ChaseOutcome::kResourceLimit;
    return false;
  }
  return true;
}

bool ChaseRun::ApplyPendingBatch(const std::vector<PendingTrigger>& pending,
                                 const AtomObserver& observer,
                                 RoundStats* round, ChaseOutcome* outcome) {
  const uint64_t null_cap = std::min(options_.max_nulls, kMaxLabeledNulls);
  // Provenance needs each head atom's id as it lands and observers see a
  // trigger's new atoms right after it fires, so such runs insert
  // directly and never stage.
  const bool direct = options_.track_provenance || observer != nullptr;
  HeadBlock& block = batch_block_;
  block.Clear();
  // Every early return below flushes first: triggers staged into the
  // block have already been counted as applied, so their atoms must be in
  // the instance of any partial result.
  const auto flush = [&]() {
    if (block.empty()) return;
    PhaseScope flush_scope(Phase::kChaseBatchFlush, block.atoms());
    round->batch_blocks += block.FlushInto(&instance_);
    block.Clear();
  };
  for (const PendingTrigger& trigger : pending) {
    // Checkpoint and cap sequence per trigger — governor, head check,
    // step cap, null cap, allocation — so every fault ordinal and abort
    // point sits between two triggers, never inside one.
    if (GovernorStop(FaultSite::kTriggerApply, applied_triggers_, outcome)) {
      flush();
      return false;
    }
    const Tgd& rule = rules_.rule(trigger.rule);
    if (options_.variant == ChaseVariant::kRestricted) {
      // A satisfaction check must observe every atom staged so far — an
      // earlier trigger this round may have satisfied this one — so the
      // block flushes before each check. Restricted batching thereby
      // degenerates to per-trigger flush granularity exactly where the
      // order-sensitive semantics require it; the win that remains is the
      // allocation-free substitution and the shared ground-head fast
      // path.
      flush();
      const HeadCheck check =
          CheckHeadSatisfied(rule, trigger.binding, outcome);
      if (check == HeadCheck::kStopped) return false;
      if (check == HeadCheck::kSatisfied) {
        // Satisfied triggers are skipped permanently (monotone).
        ++stats_.per_rule[trigger.rule].skipped_satisfied;
        continue;
      }
    }
    if (applied_triggers_ >= options_.max_steps) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Overflow-safe null cap: compare headroom, never the sum (the sum
    // can wrap when max_nulls is near the type maximum). The
    // representable-id ceiling is folded in so exhausting Term's 30-bit
    // null space is a clean resource limit rather than a checked abort
    // deep in Term::Null.
    if (next_null_ > null_cap ||
        rule.existential_variables().size() > null_cap - next_null_) {
      flush();
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
    // Storage-growth checkpoint before this trigger materializes its
    // head. Projected bytes are 0 — the round's bulk reserve already
    // pre-sized for every pending head — but the level check still trips
    // once steady-state growth crosses the budget. Flushing first keeps
    // the partial instance the exact prefix eager insertion leaves.
    if (AllocationStop(0, outcome)) {
      flush();
      return false;
    }
    ++applied_triggers_;
    ++stats_.per_rule[trigger.rule].applied;
    ++round->batched_triggers;
    // Extend the homomorphism with fresh nulls, per trigger and in
    // existential-variable order, so a round's nulls form one contiguous
    // id range.
    extended_scratch_.assign(trigger.binding.begin(), trigger.binding.end());
    for (VarId v : rule.existential_variables()) {
      extended_scratch_[v] = Term::Null(next_null_++);
    }
    if (direct) {
      if (!ApplyDirect(trigger, observer, outcome)) return false;
      continue;
    }
    for (const Atom& head : rule.head()) {
      const uint32_t arity = head.arity();
      if (instance_.size() + uint64_t{block.atoms()} + 1 >
          options_.max_atoms) {
        // Cap-adjacent careful mode: the block's staged rows may contain
        // duplicates, so `size + staged + 1` only bounds the post-flush
        // size from above. Flush to make the size exact, insert this one
        // atom directly, and check the cap right after the insert.
        // Cap-adjacent rounds are terminal, so the degraded granularity
        // costs nothing measurable.
        flush();
        InsertHeadAtom(head);
        if (instance_.size() > options_.max_atoms) {
          *outcome = ChaseOutcome::kResourceLimit;
          return false;
        }
      } else {
        Term* row = block.Append(head.predicate, arity);
        for (uint32_t pos = 0; pos < arity; ++pos) {
          const Term t = head.args[pos];
          row[pos] = t.IsVariable() ? extended_scratch_[t.index()] : t;
        }
      }
    }
  }
  flush();
  return true;
}

}  // namespace gchase
