#include "chase/chase.h"

#include <algorithm>
#include <new>
#include <utility>

#include "base/rng.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/progress.h"
#include "storage/edb.h"

namespace gchase {

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kTerminated:
      return "terminated";
    case ChaseOutcome::kResourceLimit:
      return "resource-limit";
    case ChaseOutcome::kAborted:
      return "aborted";
    case ChaseOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case ChaseOutcome::kCancelled:
      return "cancelled";
    case ChaseOutcome::kMemoryBudgetExceeded:
      return "memory-budget-exceeded";
  }
  return "?";
}

namespace {

ChaseOutcome OutcomeOf(GovernorState state) {
  switch (state) {
    case GovernorState::kCancelled:
      return ChaseOutcome::kCancelled;
    case GovernorState::kMemoryBudgetExceeded:
      return ChaseOutcome::kMemoryBudgetExceeded;
    case GovernorState::kDeadlineExceeded:
    case GovernorState::kOk:  // unreachable for a tripped governor
      break;
  }
  return ChaseOutcome::kDeadlineExceeded;
}

/// The budget a run charges: the caller-shared one when provided, else a
/// private budget built from max_memory_bytes (unlimited when 0).
std::shared_ptr<MemoryBudget> EffectiveBudget(const ChaseOptions& options) {
  if (options.memory_budget != nullptr) return options.memory_budget;
  return std::make_shared<MemoryBudget>(options.max_memory_bytes);
}

}  // namespace

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options)
    : rules_(rules),
      options_(std::move(options)),
      memory_budget_(EffectiveBudget(options_)),
      governor_(options_.deadline, options_.cancel, memory_budget_.get()) {
  // Attach the budget before any storage grows so the seed load is
  // charged too. The seed reserve itself is not checkpointed — a budget
  // too small for the database trips at the first round start, with the
  // seeded instance intact.
  instance_.SetMemoryBudget(memory_budget_.get());
  batch_block_.SetMemoryBudget(memory_budget_.get());
  stats_.memory_budget_bytes =
      memory_budget_->limited() ? memory_budget_->hard_limit_bytes() : 0;
  stats_.per_rule.assign(rules_.size(), RuleStats{});
  GCHASE_CHECK_MSG(options_.discovery_threads <= 1,
                   "discovery is serial: ChaseOptions::discovery_threads > 1");
  trigger_keys_ = std::vector<TriggerKeyTable>(rules_.size());
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    const Tgd& rule = rules_.rule(r);
    const bool oblivious = options_.variant == ChaseVariant::kOblivious;
    trigger_keys_[r].SetKeyVariables(oblivious ? rule.universal_variables()
                                               : rule.frontier());
    trigger_keys_[r].SetMemoryBudget(memory_budget_.get());
  }
  std::size_t unit_count = 0;
  for (const Tgd& rule : rules_.rules()) unit_count += rule.body().size();
  units_ = std::vector<DiscoveryUnit>(unit_count);
  DiscoveryUnit* unit = units_.data();
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    const Tgd& rule = rules_.rule(r);
    const std::size_t body_size = rule.body().size();
    for (std::size_t pivot = 0; pivot < body_size; ++pivot, ++unit) {
      unit->rule = r;
      unit->rows.SetWidth(rule.num_variables());
      unit->rows.SetMemoryBudget(memory_budget_.get());
      HomSearchOptions& search = unit->search;
      search.ranges.assign(body_size, MatchRange::kAll);
      std::fill_n(search.ranges.begin(), pivot, MatchRange::kOldOnly);
      search.ranges[pivot] = MatchRange::kDeltaOnly;
      search.visits = &unit->visits;
      search.budget_exhausted = &unit->budget_exhausted;
      search.governor = &governor_;
      search.governor_tripped = &unit->governor_tripped;
    }
  }
}

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options,
                   const std::vector<Atom>& database)
    : ChaseRun(rules, std::move(options)) {
  PhaseScope load(Phase::kChaseLoad, database.size(), &stats_.load_seconds);
  // Pre-size for the whole database load (as the apply phase does per
  // round): a large EDB would otherwise rehash the dedup table and
  // position index repeatedly mid-seed.
  uint64_t seed_terms = 0;
  for (const Atom& atom : database) seed_terms += atom.arity();
  instance_.ReserveAdditional(database.size(), seed_terms);
  for (const Atom& atom : database) {
    auto [id, inserted] = instance_.Insert(atom);
    if (inserted && options_.track_provenance) {
      provenance_.push_back(AtomProvenance{});
      GCHASE_CHECK(provenance_.size() == instance_.size());
      (void)id;
    }
  }
  stats_.edb_atoms = instance_.size();
}

ChaseRun::ChaseRun(const RuleSet& rules, ChaseOptions options,
                   const EdbDatabase& edb, Vocabulary* vocabulary)
    : ChaseRun(rules, std::move(options)) {
  PhaseScope load(Phase::kChaseLoad, edb.TotalRows(), &stats_.load_seconds);
  // The loader's own parse/open time is part of the load phase the
  // caller sees, so fold it in.
  stats_.load_seconds = edb.load_stats().seconds;
  EdbSeedStats seed;
  seed_status_ =
      SeedInstanceFromEdb(edb, vocabulary, &instance_, memory_budget_.get(),
                          &seed);
  if (seed_status_.ok() && options_.track_provenance) {
    provenance_.assign(instance_.size(), AtomProvenance{});
  }
  seed_denied_ = seed.budget_denied || edb.load_stats().memory_exceeded;
  stats_.load_bytes = edb.load_stats().input_bytes;
  stats_.edb_atoms = instance_.size();
}

ChaseRun::HeadCheck ChaseRun::CheckHeadSatisfied(const Tgd& rule,
                                                 const Term* binding,
                                                 ChaseOutcome* outcome) {
  PhaseScope head_check(Phase::kChaseHeadCheck);
  // Cooperative checkpoint at the check boundary: a run that is out of
  // budget stops *before* starting a potentially pathological search, and
  // tests can abort deterministically inside the check phase.
  if (GovernorStop(FaultSite::kHeadCheck, head_checks_++, outcome)) {
    return HeadCheck::kStopped;
  }
  if (rule.existential_variables().empty()) {
    // Ground fast path: a full rule's head instantiates completely under
    // the body binding (head variables are all frontier), so satisfaction
    // is one dedup probe per head atom — no join search. Each probe
    // counts as one join-work visit.
    for (const Atom& head : rule.head()) {
      head_scratch_.clear();
      for (Term t : head.args) {
        head_scratch_.push_back(t.IsVariable() ? binding[t.index()] : t);
      }
      ++join_work_;
      if (!instance_.ContainsTerms(head.predicate, head_scratch_.data(),
                                   head.arity())) {
        return HeadCheck::kUnsatisfied;
      }
    }
    return HeadCheck::kSatisfied;
  }
  frontier_scratch_.assign(rule.num_variables(), UnboundTerm());
  for (VarId v : rule.frontier()) frontier_scratch_[v] = binding[v];
  HomomorphismFinder finder(instance_);
  HomSearchOptions search;
  search.max_candidate_visits = options_.max_join_work > join_work_
                                    ? options_.max_join_work - join_work_
                                    : 0;
  search.visits = &join_work_;
  bool budget_exhausted = false;
  bool governor_tripped = false;
  search.budget_exhausted = &budget_exhausted;
  search.governor = &governor_;
  search.governor_tripped = &governor_tripped;
  if (finder.ExistsWithOptions(rule.head(), rule.num_variables(), search,
                               frontier_scratch_)) {
    return HeadCheck::kSatisfied;
  }
  if (governor_tripped) {
    *outcome = OutcomeOf(governor_.Check());
    return HeadCheck::kStopped;
  }
  if (budget_exhausted) {
    *outcome = ChaseOutcome::kResourceLimit;
    return HeadCheck::kStopped;
  }
  return HeadCheck::kUnsatisfied;
}

bool ChaseRun::GovernorStop(FaultSite site, uint64_t ordinal,
                            ChaseOutcome* outcome) const {
  if (options_.fault_injector) {
    switch (options_.fault_injector(site, ordinal)) {
      case InjectedFault::kNone:
        break;
      case InjectedFault::kCancel:
        *outcome = ChaseOutcome::kCancelled;
        return true;
      case InjectedFault::kDeadline:
        *outcome = ChaseOutcome::kDeadlineExceeded;
        return true;
      case InjectedFault::kResourceLimit:
        *outcome = ChaseOutcome::kResourceLimit;
        return true;
      case InjectedFault::kMemoryBudget:
        *outcome = ChaseOutcome::kMemoryBudgetExceeded;
        return true;
    }
  }
  const GovernorState state = governor_.Check();
  if (state == GovernorState::kOk) return false;
  *outcome = OutcomeOf(state);
  return true;
}

bool ChaseRun::AllocationStop(uint64_t projected_bytes, ChaseOutcome* outcome) {
  if (GovernorStop(FaultSite::kAllocation, alloc_checks_++, outcome)) {
    return true;
  }
  if (projected_bytes != 0 && memory_budget_->WouldExceed(projected_bytes)) {
    // Deny before committing: the instance keeps its pre-growth shape, so
    // the partial result is exactly the uncapped run's prefix.
    memory_budget_->NoteDenied();
    *outcome = ChaseOutcome::kMemoryBudgetExceeded;
    return true;
  }
  return false;
}

bool ChaseRun::MergeUnit(const DiscoveryUnit& unit, RoundStats* draft) {
  // Rows in enumeration order, deduplicated through their rule's
  // trigger-key table. The table and the pending list are sized for the
  // unit's rows up front (the list geometrically), so the loop allocates
  // nothing; rows are hashed kBatch at a time and their home slots
  // prefetched before the inserts probe them. The step cap counts
  // deduplicated candidates, the hom cap every row; either stops the
  // merge right after the row that reaches it.
  ++draft->fallback_units;
  const uint64_t rows = unit.rows.rows();
  draft->binding_rows += rows;
  if (rows == 0) return false;
  constexpr uint64_t kBatch = 16;
  TriggerKeyTable& keys = trigger_keys_[unit.rule];
  RuleStats& rule_stats = stats_.per_rule[unit.rule];
  keys.Reserve(rows);
  if (pending_.capacity() - pending_.size() < rows) {
    pending_.reserve(std::max(2 * pending_.capacity(), pending_.size() + rows));
  }
  uint64_t hashes[kBatch];
  for (uint64_t begin = 0; begin < rows; begin += kBatch) {
    const uint64_t n = std::min(kBatch, rows - begin);
    for (uint64_t j = 0; j < n; ++j) {
      hashes[j] = keys.Hash(unit.rows.row(begin + j));
      keys.Prefetch(hashes[j]);
    }
    for (uint64_t j = 0; j < n; ++j) {
      const Term* row = unit.rows.row(begin + j);
      ++hom_discoveries_;
      if (keys.Insert(row, hashes[j])) {
        ++rule_stats.discovered;
        pending_.push_back(PendingTrigger{unit.rule, row});
      }
      if (applied_triggers_ + pending_.size() >= options_.max_steps ||
          hom_discoveries_ >= options_.max_hom_discoveries) {
        return true;
      }
    }
  }
  return false;
}

bool ChaseRun::DiscoverTriggers(AtomId watermark, RoundStats* draft,
                                bool* capped, ChaseOutcome* stop_outcome) {
  // The units run one at a time, in unit order. Each is granted the join
  // budget and hom headroom its predecessors left and merges before the
  // next one runs, so a cap stops the pass exactly where it binds. Each
  // unit writes its rows into its own segment, so pending_'s views of
  // earlier units stay valid.
  pending_.clear();
  const auto remaining = [](uint64_t cap, uint64_t used) {
    return cap > used ? cap - used : 0;
  };
  for (uint64_t u = 0; u < units_.size(); ++u) {
    DiscoveryUnit& unit = units_[u];
    if (GovernorStop(FaultSite::kDiscovery, u, stop_outcome)) {
      pending_.clear();
      return false;
    }
    {
      PhaseScope unit_scope(Phase::kChaseDiscoveryUnit);
      const uint64_t found_cap =
          remaining(options_.max_hom_discoveries, hom_discoveries_);
      unit.search.watermark = watermark;
      unit.search.max_candidate_visits =
          remaining(options_.max_join_work, join_work_);
      unit.visits = 0;
      unit.budget_exhausted = false;
      unit.governor_tripped = false;
      unit.rows.Clear();
      const Tgd& rule = rules_.rule(unit.rule);
      HomomorphismFinder(instance_).FindAllWithOptions(
          rule.body(), rule.num_variables(), unit.search, Binding(),
          [&unit, found_cap](const Binding& binding) {
            unit.rows.AppendRow(binding.data());
            if (unit.rows.rows() >= found_cap) {
              unit.budget_exhausted = true;
              return false;
            }
            return true;
          });
    }
    // Work accounting is kept even when the unit aborted, so partial
    // stats stay truthful.
    join_work_ += unit.visits;
    if (unit.governor_tripped) {
      *stop_outcome = OutcomeOf(governor_.Check());
      pending_.clear();
      return false;
    }
    PhaseScope merge_scope(Phase::kChaseDiscoveryMerge);
    if (MergeUnit(unit, draft) || unit.budget_exhausted) {
      *capped = true;
      break;
    }
  }
  return true;
}

void ChaseRun::UpdateStatsPeaks() {
  stats_.peak_atoms = std::max<uint64_t>(stats_.peak_atoms, instance_.size());
  stats_.peak_position_index_keys = std::max(
      stats_.peak_position_index_keys, instance_.PositionIndexKeys());
  stats_.peak_position_index_entries = std::max(
      stats_.peak_position_index_entries, instance_.PositionIndexEntries());
  uint64_t dedup_keys = 0;
  for (const TriggerKeyTable& keys : trigger_keys_) dedup_keys += keys.size();
  stats_.peak_dedup_keys = std::max(stats_.peak_dedup_keys, dedup_keys);
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, memory_budget_->peak_bytes());
  stats_.memory_in_use_bytes = memory_budget_->in_use_bytes();
  stats_.memory_denials = memory_budget_->denials();
}

ChaseOutcome ChaseRun::Execute(const AtomObserver& observer) {
  GCHASE_CHECK_MSG(!executed_, "ChaseRun::Execute called twice");
  GCHASE_CHECK_MSG(seed_status_.ok(),
                   "ChaseRun::Execute on a failed seed (check seed_status())");
  executed_ = true;
  if (seed_denied_) {
    // The EDB load or seed already tripped the budget: surface the same
    // outcome a mid-run trip would, with the seeded prefix and the load
    // stats intact.
    UpdateStatsPeaks();
    return ChaseOutcome::kMemoryBudgetExceeded;
  }
  // Last-resort containment: the budget's pre-size denials make an
  // allocator failure unreachable in the governed paths, but an
  // unbudgeted run (or a budget set above physical memory) can still hit
  // the allocator wall. Degrade to the same clean outcome — the
  // structures' basic exception guarantee keeps the instance valid.
  try {
    return ExecuteLoop(observer);
  } catch (const std::bad_alloc&) {
    UpdateStatsPeaks();
    return ChaseOutcome::kMemoryBudgetExceeded;
  }
}

ChaseOutcome ChaseRun::ExecuteLoop(const AtomObserver& observer) {
  AtomId watermark = 0;
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  UpdateStatsPeaks();
  // Round-boundary checkpoint: a run that is out of budget stops here
  // with everything it has materialized so far intact.
  bool more = true;
  while (more && !GovernorStop(FaultSite::kRoundStart, rounds_, &outcome)) {
    const uint64_t rounds_before = rounds_;
    double round_seconds = 0.0;
    {
      PhaseScope round(Phase::kChaseRound, rounds_, &round_seconds);
      more = ExecuteRound(&watermark, observer, &outcome);
    }
    // A final empty or aborted discovery pass has no per-round entry.
    if (rounds_ != rounds_before) {
      stats_.per_round.back().total_seconds = round_seconds;
    }
    UpdateStatsPeaks();
  }
  return outcome;
}

bool ChaseRun::ExecuteRound(AtomId* watermark, const AtomObserver& observer,
                            ChaseOutcome* outcome) {
  const AtomId frontier_end = instance_.size();

  // Discover triggers whose homomorphism touches the latest delta:
  // pivot decomposition guarantees each homomorphism is found once.
  // Discovery itself is bounded by the step cap — unguarded bodies can
  // otherwise enumerate combinatorially many homomorphisms in a single
  // round before any trigger is applied.
  bool discovery_capped = false;
  bool discovery_ok;
  RoundStats draft;
  {
    PhaseScope discovery(Phase::kChaseDiscovery, rounds_,
                         &draft.discovery_seconds);
    discovery_ok =
        DiscoverTriggers(*watermark, &draft, &discovery_capped, outcome);
  }

  if (!discovery_ok || pending_.empty()) {
    // A stopped pass is partial — applying it would skew restricted-chase
    // order semantics — so it is dropped with *outcome already set. A
    // capped empty pass may have lost homomorphisms that will not be
    // re-found: the run is incomplete, not terminated.
    stats_.final_discovery_seconds += draft.discovery_seconds;
    if (discovery_ok) {
      *outcome = discovery_capped ? ChaseOutcome::kResourceLimit
                                  : ChaseOutcome::kTerminated;
    }
    return false;
  }
  ++rounds_;
  draft.delta_atoms = frontier_end - *watermark;
  draft.candidates = pending_.size();
  stats_.per_round.push_back(draft);
  RoundStats& round = stats_.per_round.back();

  // Reorder within the round per the configured strategy. Every
  // strategy applies all discovered triggers before the next round, so
  // fairness is preserved.
  switch (options_.order) {
    case TriggerOrder::kFifo:
      break;
    case TriggerOrder::kDatalogFirst:
      std::stable_partition(
          pending_.begin(), pending_.end(), [this](const PendingTrigger& t) {
            return rules_.rule(t.rule).IsFull();
          });
      break;
    case TriggerOrder::kRandom: {
      // Seed and round are avalanche-mixed so nearby (seed, round)
      // pairs give independent shuffles; `seed + round` would make
      // (s, r+1) replay (s+1, r) and correlate adjacent seeds.
      Rng rng(SplitMix64(options_.order_seed ^ SplitMix64(rounds_)));
      for (std::size_t i = pending_.size(); i > 1; --i) {
        std::swap(pending_[i - 1], pending_[rng.NextBelow(i)]);
      }
      break;
    }
  }

  // Pre-size the instance for the round's worst-case growth (every
  // pending trigger fires and every head atom is new) so the apply loop
  // never rehashes the dedup table or position index mid-flight.
  uint64_t reserve_atoms = 0;
  uint64_t reserve_terms = 0;
  for (const PendingTrigger& trigger : pending_) {
    for (const Atom& head_atom : rules_.rule(trigger.rule).head()) {
      ++reserve_atoms;
      reserve_terms += head_atom.arity();
    }
  }
  // Storage-growth checkpoint with the reserve's projected byte cost:
  // a budget the reserve would cross stops the round here, before any
  // of the memory is committed, so the instance still holds exactly the
  // atoms the uncapped run had at this point.
  if (AllocationStop(
          instance_.EstimateReserveBytes(reserve_atoms, reserve_terms),
          outcome)) {
    return false;
  }
  instance_.ReserveAdditional(reserve_atoms, reserve_terms);

  // Apply in the chosen order (always serial: application mutates the
  // instance, and restricted-chase semantics depend on the order).
  const uint64_t applied_before = applied_triggers_;
  bool apply_ok;
  {
    PhaseScope apply(Phase::kChaseApply, rounds_ - 1, &round.apply_seconds);
    apply_ok = ApplyPendingBatch(observer, &round, outcome);
  }
  round.applied = applied_triggers_ - applied_before;
  if (ProgressEnabled()) {
    ProgressCounters& pc = GlobalProgress();
    pc.rounds.store(rounds_, std::memory_order_relaxed);
    pc.atoms.store(instance_.size(), std::memory_order_relaxed);
    pc.triggers.store(applied_triggers_, std::memory_order_relaxed);
  }
  if (!apply_ok) return false;
  if (discovery_capped) {
    *outcome = ChaseOutcome::kResourceLimit;
    return false;
  }
  *watermark = frontier_end;
  return true;
}

ChaseResult RunChase(const RuleSet& rules, const ChaseOptions& options,
                     const std::vector<Atom>& database) {
  ChaseResult result;
  // Containment boundary for the phases Execute()'s own guard cannot
  // cover: seeding the instance in the constructor and copying the final
  // instance into the result. Counters and stats are copied before the
  // instance, so a failed copy still reports the run truthfully.
  try {
    ChaseRun run(rules, options, database);
    result.outcome = run.Execute();
    result.applied_triggers = run.applied_triggers();
    result.rounds = run.rounds();
    result.nulls_created = run.nulls_created();
    result.hom_discoveries = run.hom_discoveries();
    result.join_work = run.join_work();
    result.stats = run.stats();
    result.instance = run.instance();
  } catch (const std::bad_alloc&) {
    result.outcome = ChaseOutcome::kMemoryBudgetExceeded;
    result.instance = Instance();
  }
  return result;
}

void PublishChaseMetrics(const ChaseStats& stats, MetricsRegistry* registry) {
  MetricsRegistry& sink =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  sink.Counter("chase.runs")->Increment();
  sink.Counter("chase.rounds")->Add(stats.per_round.size());
  uint64_t discovered = 0, applied = 0, skipped = 0;
  for (const RuleStats& rule : stats.per_rule) {
    discovered += rule.discovered;
    applied += rule.applied;
    skipped += rule.skipped_satisfied;
  }
  sink.Counter("chase.triggers_discovered")->Add(discovered);
  sink.Counter("chase.triggers_applied")->Add(applied);
  sink.Counter("chase.triggers_skipped_satisfied")->Add(skipped);
  uint64_t discovery_us = 0, apply_us = 0, round_us = 0;
  uint64_t batched_triggers = 0, batch_blocks = 0;
  uint64_t units = 0, binding_rows = 0;
  for (const RoundStats& round : stats.per_round) {
    discovery_us += static_cast<uint64_t>(round.discovery_seconds * 1e6);
    apply_us += static_cast<uint64_t>(round.apply_seconds * 1e6);
    round_us += static_cast<uint64_t>(round.total_seconds * 1e6);
    batched_triggers += round.batched_triggers;
    batch_blocks += round.batch_blocks;
    units += round.fallback_units;
    binding_rows += round.binding_rows;
  }
  // The terminal pass has no per-round entry but its discovery time is
  // real — fold it in, or chase.discovery_us undercounts every run by one
  // pass.
  discovery_us += static_cast<uint64_t>(stats.final_discovery_seconds * 1e6);
  sink.Counter("chase.discovery_us")->Add(discovery_us);
  sink.Counter("chase.apply_us")->Add(apply_us);
  sink.Counter("chase.round_us")->Add(round_us);
  sink.Counter("chase.batched_triggers")->Add(batched_triggers);
  sink.Counter("chase.batch_blocks")->Add(batch_blocks);
  sink.Counter("chase.discovery_units")->Add(units);
  sink.Counter("chase.discovery_binding_rows")->Add(binding_rows);
  sink.Gauge("chase.peak_atoms")
      ->SetMax(static_cast<int64_t>(stats.peak_atoms));
  sink.Gauge("chase.peak_position_index_keys")
      ->SetMax(static_cast<int64_t>(stats.peak_position_index_keys));
  sink.Gauge("chase.peak_position_index_entries")
      ->SetMax(static_cast<int64_t>(stats.peak_position_index_entries));
  sink.Gauge("chase.peak_dedup_keys")
      ->SetMax(static_cast<int64_t>(stats.peak_dedup_keys));
  sink.Gauge("chase.peak_memory_bytes")
      ->SetMax(static_cast<int64_t>(stats.peak_memory_bytes));
  sink.Gauge("chase.memory_in_use_bytes")
      ->Set(static_cast<int64_t>(stats.memory_in_use_bytes));
  sink.Gauge("chase.memory_budget_bytes")
      ->SetMax(static_cast<int64_t>(stats.memory_budget_bytes));
  sink.Counter("chase.memory_denials")->Add(stats.memory_denials);
  sink.Counter("chase.load_us")
      ->Add(static_cast<uint64_t>(stats.load_seconds * 1e6));
  sink.Counter("chase.load_bytes")->Add(stats.load_bytes);
  sink.Counter("chase.load_atoms")->Add(stats.edb_atoms);
}

bool IsModelOf(const Instance& instance, const RuleSet& rules) {
  // An ungoverned governor never trips and the budget is infinite, so the
  // verdict is always conclusive.
  const RunGovernor ungoverned;
  return IsModelOfGoverned(instance, rules, ungoverned).value_or(false);
}

std::optional<bool> IsModelOfGoverned(const Instance& instance,
                                      const RuleSet& rules,
                                      const RunGovernor& governor,
                                      uint64_t max_join_work,
                                      uint64_t* join_work) {
  HomomorphismFinder finder(instance);
  uint64_t visits = 0;
  bool violated = false;
  bool inconclusive = false;
  for (const Tgd& rule : rules.rules()) {
    // Per-rule checkpoint: the in-search polls fire only every ~1k
    // candidate visits, so a small instance could otherwise run a whole
    // check to a verdict under an already-tripped governor.
    if (governor.Check() != GovernorState::kOk) {
      inconclusive = true;
      break;
    }
    HomSearchOptions body_search;
    body_search.max_candidate_visits =
        max_join_work > visits ? max_join_work - visits : 0;
    body_search.visits = &visits;
    bool body_exhausted = false;
    bool body_tripped = false;
    body_search.budget_exhausted = &body_exhausted;
    body_search.governor = &governor;
    body_search.governor_tripped = &body_tripped;
    finder.FindAllWithOptions(
        rule.body(), rule.num_variables(), body_search, Binding(),
        [&](const Binding& binding) {
          Binding frontier_binding(rule.num_variables(), UnboundTerm());
          for (VarId v : rule.frontier()) {
            frontier_binding[v] = binding[v];
          }
          // The budget is shared across all searches of the check; the
          // body search's in-flight visits are only folded into `visits`
          // when it finishes, so the head slice is an upper bound — fine
          // for a budget, which bounds work, not a bit-exact count.
          HomSearchOptions head_search;
          head_search.max_candidate_visits =
              max_join_work > visits ? max_join_work - visits : 0;
          head_search.visits = &visits;
          bool head_exhausted = false;
          bool head_tripped = false;
          head_search.budget_exhausted = &head_exhausted;
          head_search.governor = &governor;
          head_search.governor_tripped = &head_tripped;
          if (finder.ExistsWithOptions(rule.head(), rule.num_variables(),
                                       head_search, frontier_binding)) {
            return true;
          }
          if (head_tripped || head_exhausted) {
            inconclusive = true;
            return false;
          }
          violated = true;
          return false;
        });
    if (body_tripped || body_exhausted) inconclusive = true;
    if (violated || inconclusive) break;
  }
  if (join_work != nullptr) *join_work += visits;
  // A violation found before any trip is conclusive regardless.
  if (violated) return false;
  if (inconclusive) return std::nullopt;
  return true;
}

}  // namespace gchase
