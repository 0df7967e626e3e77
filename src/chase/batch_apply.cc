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

uint32_t HeadBlock::FlushInto(Instance* instance) {
  const bool want_ids = !origins_.empty();
  if (want_ids) {
    ids_.resize(atoms_);
    budget_.ChargeUpTo(capacity_bytes());
  }
  // Single-row fast path: restricted rounds flush before every head
  // check and observer runs after every trigger, so most of their blocks
  // hold exactly one atom — skip the bulk pre-sizing ceremony and insert
  // directly (identical id/dedup semantics; TryAddBatch degenerates to
  // this for n == 1).
  if (atoms_ == 1) {
    const Segment& segment = segments_.front();
    const Term* row = terms_.data() + segment.offset;
    const AtomId id =
        instance->TryAddTerms(segment.predicate, row, segment.arity).first;
    if (want_ids) ids_[0] = id;
    return 1;
  }
  uint32_t first_row = 0;
  for (const Segment& segment : segments_) {
    instance->TryAddBatch(segment.predicate, terms_.data() + segment.offset,
                          segment.arity, segment.rows,
                          want_ids ? ids_.data() + first_row : nullptr);
    first_row += segment.rows;
  }
  return static_cast<uint32_t>(segments_.size());
}

void ChaseRun::RecordTrigger(uint32_t rule_index, const Term* binding) {
  const Tgd& rule = rules_.rule(rule_index);
  TriggerRecord& record = triggers_.emplace_back();
  record.rule = rule_index;
  record.binding.assign(binding, binding + rule.num_variables());
  record.body_atoms.reserve(rule.body().size());
  for (const Atom& body_atom : rule.body()) {
    head_scratch_.clear();
    for (Term t : body_atom.args) {
      head_scratch_.push_back(t.IsVariable() ? binding[t.index()] : t);
    }
    const std::optional<AtomId> id = instance_.FindTerms(
        body_atom.predicate, head_scratch_.data(), body_atom.arity());
    GCHASE_CHECK(id.has_value());
    record.body_atoms.push_back(*id);
  }
  for (VarId v : rule.existential_variables()) {
    record.created_nulls.push_back(extended_scratch_[v]);
  }
}

bool ChaseRun::ApplyPendingBatch(const AtomObserver& observer,
                                 RoundStats* round, ChaseOutcome* outcome) {
  const uint64_t null_cap = std::min(options_.max_nulls, kMaxLabeledNulls);
  const bool track = options_.track_provenance;
  HeadBlock& block = batch_block_;
  block.Clear();
  // Every early return below flushes first: triggers staged into the
  // block have already been counted as applied, so their atoms must be in
  // the instance of any partial result. Provenance is written at the
  // flush, in row order — which is id order, so a row whose id is the
  // next unused one is a fresh atom and any other row repeats one.
  const auto flush = [&]() {
    if (block.empty()) return;
    PhaseScope flush_scope(Phase::kChaseBatchFlush, block.atoms());
    round->batch_blocks += block.FlushInto(&instance_);
    for (uint32_t i = 0; track && i < block.atoms(); ++i) {
      const HeadBlock::Origin origin = block.origins()[i];
      const AtomId id = block.ids()[i];
      TriggerRecord& record = triggers_[origin.trigger];
      record.produced.push_back(id);
      if (id != provenance_.size()) continue;
      const Tgd& rule = rules_.rule(record.rule);
      const AtomId parent = record.body_atoms[rule.guard_index().value_or(0)];
      const uint32_t depth = provenance_[parent].depth + 1;
      provenance_.push_back(AtomProvenance{record.rule, origin.head_index,
                                           parent, depth, origin.trigger});
    }
    GCHASE_CHECK(!track || provenance_.size() == instance_.size());
    block.Clear();
  };
  for (const PendingTrigger& trigger : pending_) {
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
      const HeadCheck check = CheckHeadSatisfied(rule, trigger.row, outcome);
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
    extended_scratch_.assign(trigger.row, trigger.row + rule.num_variables());
    for (VarId v : rule.existential_variables()) {
      extended_scratch_[v] = Term::Null(next_null_++);
    }
    const uint32_t trigger_index = static_cast<uint32_t>(triggers_.size());
    if (track) RecordTrigger(trigger.rule, trigger.row);
    // With an observer attached the block is empty here (it is flushed
    // after every trigger), so this trigger's new atoms are exactly the
    // ids from here up to the instance size after its flush.
    const AtomId first_new = instance_.size();
    bool over_atom_cap = false;
    for (uint32_t h = 0; h < rule.head().size() && !over_atom_cap; ++h) {
      const Atom& head = rule.head()[h];
      const uint32_t arity = head.arity();
      // Cap-adjacent mode: the block's staged rows may contain
      // duplicates, so `size + staged + 1` only bounds the post-flush
      // size from above. Flush to make the size exact, stage this one
      // atom, flush it and check the cap right away. Cap-adjacent rounds
      // are terminal, so the degraded granularity costs nothing
      // measurable.
      const bool cap_adjacent =
          instance_.size() + uint64_t{block.atoms()} + 1 > options_.max_atoms;
      if (cap_adjacent) flush();
      Term* row = track ? block.Append(head.predicate, arity,
                                       HeadBlock::Origin{trigger_index, h})
                        : block.Append(head.predicate, arity);
      for (uint32_t pos = 0; pos < arity; ++pos) {
        const Term t = head.args[pos];
        row[pos] = t.IsVariable() ? extended_scratch_[t.index()] : t;
      }
      if (cap_adjacent) {
        flush();
        over_atom_cap = instance_.size() > options_.max_atoms;
      }
    }
    // Observers see a trigger's new atoms right after it fires, and only
    // once its record is complete: they (e.g. the pump detector) follow
    // provenance into triggers().
    if (observer != nullptr) {
      flush();
      for (AtomId id = first_new; id < instance_.size(); ++id) {
        if (!observer(id)) {
          *outcome = ChaseOutcome::kAborted;
          return false;
        }
      }
    }
    if (over_atom_cap) {
      *outcome = ChaseOutcome::kResourceLimit;
      return false;
    }
  }
  flush();
  return true;
}

}  // namespace gchase
