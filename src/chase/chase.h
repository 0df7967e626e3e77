#ifndef GCHASE_CHASE_CHASE_H_
#define GCHASE_CHASE_CHASE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/governor.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "chase/batch_apply.h"
#include "chase/trigger_keys.h"
#include "model/tgd.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace gchase {

/// Which chase procedure to run. The variants differ in when a trigger
/// (rule, homomorphism) is considered "already applied":
///  - oblivious: one application per (rule, full body homomorphism);
///  - semi-oblivious: one application per (rule, frontier restriction) —
///    homomorphisms agreeing on the frontier are indistinguishable;
///  - restricted (standard): like semi-oblivious, but a trigger is skipped
///    if its head is already satisfied by an extension into the instance.
enum class ChaseVariant { kOblivious, kSemiOblivious, kRestricted };

/// Returns "oblivious", "semi-oblivious" or "restricted".
const char* ChaseVariantName(ChaseVariant variant);

/// In which order discovered triggers are applied within a round. The
/// (semi-)oblivious chase result does not depend on this (every trigger
/// fires eventually); the *restricted* chase is order-sensitive — one
/// order may terminate while another diverges — which is why deciding
/// its termination is substantially harder (the paper's future work).
enum class TriggerOrder {
  kFifo,          ///< Discovery order (round-robin; the default).
  kDatalogFirst,  ///< Existential-free rules first within each round: a
                  ///< satisfaction-eager heuristic that lets the
                  ///< restricted chase skip more triggers.
  kRandom,        ///< Seeded shuffle per round (for order-sensitivity
                  ///< probing).
};

/// Where a fault-injection checkpoint sits (see
/// ChaseOptions::fault_injector).
enum class FaultSite {
  kRoundStart,    ///< Ordinal: the 0-based round about to start.
  kDiscovery,     ///< Ordinal: the (rule, pivot) discovery-unit index
                  ///< within the round, in unit order.
  kTriggerApply,  ///< Ordinal: triggers applied so far in the run.
  kHeadCheck,     ///< Ordinal: restricted-chase head-satisfaction checks
                  ///< performed so far in the run. Sits at the entry of
                  ///< every satisfaction check, so tests can abort a run
                  ///< deterministically *inside* the check phase.
  kAllocation,    ///< Ordinal: storage-growth decision points passed so
                  ///< far in the run (the pre-round bulk reserve and each
                  ///< trigger's head materialization). This is where the
                  ///< memory budget's pre-size denial sits, so injecting
                  ///< kMemoryBudget here exercises every byte-budget stop
                  ///< path without an actual multi-megabyte instance. The
                  ///< ordinal sequence does not depend on when the apply
                  ///< phase flushes its staged head atoms, nor on the
                  ///< discovery thread count.
};

/// What a fault injector forces at a checkpoint.
enum class InjectedFault {
  kNone,           ///< No fault; the run proceeds.
  kCancel,         ///< As if the cancellation token had been tripped.
  kDeadline,       ///< As if the wall-clock deadline had expired.
  kResourceLimit,  ///< As if an allocation/count cap had been hit.
  kMemoryBudget,   ///< As if the byte budget's hard limit had been hit.
};

/// Test-only hook: called at every governor checkpoint with the site and
/// its ordinal; returning anything but kNone aborts the run there with
/// the corresponding outcome. This makes every abort path reachable
/// deterministically — no timing games — so tests can pin down exactly
/// which round / trigger / discovery unit a run died at. The injector is
/// called concurrently from parallel-discovery workers and must be
/// thread-safe (capture atomics, not plain counters).
using FaultInjector = std::function<InjectedFault(FaultSite, uint64_t)>;

/// Resource caps and feature toggles for one chase execution.
struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kRestricted;
  /// Trigger application order within a round.
  TriggerOrder order = TriggerOrder::kFifo;
  /// Seed for TriggerOrder::kRandom.
  uint64_t order_seed = 0;
  /// Worker threads for the trigger-discovery phase. 1 (the default) runs
  /// the round's (rule, pivot) discovery units inline; n > 1 shards them
  /// over n threads. Either way the units' rows merge in unit order, so
  /// every value produces bit-identical instances and trigger sequences.
  /// Trigger *application* is always serial (it mutates the instance), so
  /// restricted-chase order sensitivity is unaffected.
  uint32_t discovery_threads = 1;
  /// Persistent executor for the discovery fan-out. When set, the run
  /// wakes this pool's parked workers each parallel round instead of
  /// spawning threads; the pool may be shared across consecutive runs
  /// (the restricted-probe driver does this). When unset and
  /// discovery_threads > 1, the run creates a private pool for its
  /// lifetime. The pool's worker count caps the effective parallelism.
  std::shared_ptr<ThreadPool> executor;
  /// Adaptive serial/parallel cutover: a round whose estimated join work
  /// (delta cardinality x candidate fan-out, summed over discovery
  /// units) falls below this threshold runs its units inline even when
  /// discovery_threads > 1 — waking workers for a handful of probes
  /// costs more than the probes. 0 disables the cutover (always
  /// parallel). Results are bit-identical either way.
  uint64_t parallel_cutover_work = uint64_t{1} << 15;
  /// Cap on applied triggers (chase steps).
  uint64_t max_steps = std::numeric_limits<uint64_t>::max();
  /// Cap on total atoms in the instance.
  uint64_t max_atoms = std::numeric_limits<uint64_t>::max();
  /// Cap on fresh labeled nulls.
  uint64_t max_nulls = std::numeric_limits<uint64_t>::max();
  /// Cap on homomorphisms enumerated during trigger discovery across the
  /// whole run (each homomorphism is discovered exactly once). Unguarded
  /// bodies can have |instance|^k homomorphisms, far more than the
  /// triggers that survive dedup; this cap bounds that work.
  uint64_t max_hom_discoveries = std::numeric_limits<uint64_t>::max();
  /// Cap on candidate atoms visited by the join search across the run
  /// (bounds backtracking *work*, which can dwarf the homomorphism count
  /// on high-fanout unguarded joins).
  uint64_t max_join_work = std::numeric_limits<uint64_t>::max();
  /// Record per-atom and per-trigger provenance (costs memory; required by
  /// the termination deciders' pump detection). Provenance runs stage and
  /// flush head atoms like every run; the provenance is written at the
  /// flush, from a (trigger, head index) column kept beside the block.
  bool track_provenance = false;
  /// Byte budget for the run's retained storage (term arena, atom
  /// records, dedup table, position index, posting lists, batch staging,
  /// discovery segments, trigger-key tables).
  /// 0 means unlimited. Enforced two ways: bulk growth points project
  /// their exact byte cost and refuse to commit it when it would cross
  /// the limit, and every governor checkpoint trips once live usage is
  /// over it — either way the run stops cleanly with
  /// ChaseOutcome::kMemoryBudgetExceeded, the partial instance and stats
  /// intact, never a throw mid-grow. Per-atom steady-state growth between
  /// checkpoints bounds the overshoot to one geometric growth step. The
  /// discovery units' binding segments are reused round after round, and
  /// the trigger-key tables only grow, so their high-water capacity stays
  /// charged for the whole run.
  uint64_t max_memory_bytes = 0;
  /// Externally owned budget to charge instead of a private one built
  /// from max_memory_bytes (which is then ignored). Lets sequential
  /// phases (the decider cascade) or concurrent runs share one
  /// admission-controlled pool; the run charges its retained bytes on
  /// growth and releases them when its storage dies.
  std::shared_ptr<MemoryBudget> memory_budget;
  /// Wall-clock budget for the run. Checked cooperatively (round starts,
  /// discovery units, join-search visits, trigger applications); expiry
  /// surfaces as ChaseOutcome::kDeadlineExceeded with the partial
  /// instance and stats intact — never a throw or a hang. Default:
  /// infinite.
  Deadline deadline;
  /// External cancellation. Keep a copy of the token and RequestCancel()
  /// from any thread (or signal handler) to stop the run at its next
  /// checkpoint with ChaseOutcome::kCancelled.
  CancellationToken cancel;
  /// Test-only fault injection; see FaultInjector. Leave empty in
  /// production.
  FaultInjector fault_injector;
};

/// How a chase execution ended. kTerminated is a proof (a universal
/// model); everything else is a clean early stop that leaves the partial
/// instance, provenance and stats valid and inspectable.
enum class ChaseOutcome {
  kTerminated,        ///< No unapplied trigger remains: a universal model.
  kResourceLimit,     ///< A count cap in ChaseOptions was hit.
  kAborted,           ///< The observer callback requested a stop.
  kDeadlineExceeded,  ///< ChaseOptions::deadline expired mid-run.
  kCancelled,         ///< ChaseOptions::cancel was tripped mid-run.
  kMemoryBudgetExceeded,  ///< The byte budget's hard limit was crossed.
};

/// Returns "terminated", "resource-limit", "aborted", "deadline-exceeded",
/// "cancelled" or "memory-budget-exceeded".
const char* ChaseOutcomeName(ChaseOutcome outcome);

/// Collapses an outcome to the shared early-stop vocabulary (kNone for
/// kTerminated and kAborted — neither is a budget problem).
inline StopReason StopReasonOf(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kResourceLimit:
      return StopReason::kResourceCap;
    case ChaseOutcome::kDeadlineExceeded:
      return StopReason::kDeadline;
    case ChaseOutcome::kCancelled:
      return StopReason::kCancelled;
    case ChaseOutcome::kMemoryBudgetExceeded:
      return StopReason::kMemory;
    case ChaseOutcome::kTerminated:
    case ChaseOutcome::kAborted:
      break;
  }
  return StopReason::kNone;
}

/// Sentinel ids for provenance of database atoms.
inline constexpr uint32_t kNoRule = 0xffffffffu;
inline constexpr uint32_t kNoAtomId = 0xffffffffu;
inline constexpr uint32_t kNoTriggerId = 0xffffffffu;

/// Where an instance atom came from.
struct AtomProvenance {
  uint32_t rule = kNoRule;          ///< Producing rule index (kNoRule = DB atom).
  uint32_t head_index = 0;          ///< Which head atom of the rule.
  AtomId parent = kNoAtomId;        ///< Image of the rule's guard body atom.
  uint32_t depth = 0;               ///< 1 + parent depth (0 for DB atoms).
  uint32_t trigger = kNoTriggerId;  ///< Index into triggers().
};

/// One applied trigger, recorded when track_provenance is on.
struct TriggerRecord {
  uint32_t rule = 0;
  std::vector<AtomId> body_atoms;  ///< Images of the body conjuncts, in order.
  Binding binding;                 ///< The full body homomorphism.
  std::vector<Term> created_nulls; ///< Fresh nulls, in existential-var order.
  std::vector<AtomId> produced;    ///< Ids of the head-atom images.
};

/// Labeled-null ids the engine may allocate: [0, kMaxLabeledNulls). The id
/// kUnboundIndex is the binding sentinel and is never handed out; running
/// out of representable ids surfaces as ChaseOutcome::kResourceLimit, never
/// as a silent collision.
inline constexpr uint64_t kMaxLabeledNulls = kUnboundIndex;

/// Per-rule trigger counters, indexed like RuleSet::rule().
struct RuleStats {
  uint64_t discovered = 0;         ///< Candidates surviving key dedup.
  uint64_t applied = 0;            ///< Triggers actually fired.
  uint64_t skipped_satisfied = 0;  ///< Restricted-chase satisfied skips.
};

/// Per-round counters and phase timings. A round is one discovery pass
/// followed by one application pass; the final discovery pass that finds
/// no candidate (and so terminates the run) has no entry.
struct RoundStats {
  uint64_t delta_atoms = 0;        ///< Atoms entering the round as delta.
  uint64_t candidates = 0;         ///< Pending triggers after dedup.
  uint64_t applied = 0;            ///< Triggers fired this round.
  double discovery_seconds = 0.0;  ///< Wall time of the discovery phase.
  double apply_seconds = 0.0;      ///< Wall time of the application phase.
  /// Wall time of the whole round (the chase.round span), discovery
  /// start to apply end — also covering the reorder/reserve work between
  /// the phases, which the two phase timers alone leave invisible.
  double total_seconds = 0.0;
  uint64_t estimated_work = 0;     ///< Join-work estimate driving cutover.
  bool parallel_discovery = false; ///< Round's units ran on the pool.
  /// Triggers applied through the set-at-a-time apply path this round.
  /// There is only one apply path, so this always equals `applied`.
  uint64_t batched_triggers = 0;
  /// Bulk segments flushed into the store this round. One per maximal run
  /// of same-shape head atoms: a whole (semi-)oblivious round of a
  /// single-head rule is one block; restricted rounds flush before every
  /// satisfaction check, observer runs after every trigger, and both so
  /// count at least one block per applied trigger. Provenance alone does
  /// not change the count.
  uint64_t batch_blocks = 0;
  /// Discovery units whose rows came from a compiled join plan: always 0,
  /// since every unit runs the backtracking search. Kept in the
  /// per-round schema for the readers of its stats.
  uint64_t plan_units = 0;
  /// Discovery units whose rows came from the backtracking search and
  /// were merged: every merged unit, since every unit runs the search.
  uint64_t fallback_units = 0;
  /// Binding rows the merged units materialized (pre-dedup
  /// homomorphisms).
  uint64_t binding_rows = 0;
};

/// Observability counters for one chase execution. Collection is always
/// on: everything here is O(rules + rounds) memory and a couple of clock
/// reads per round. Serialized to JSON by bench_util::ChaseStatsToJson.
struct ChaseStats {
  std::vector<RuleStats> per_rule;
  std::vector<RoundStats> per_round;
  uint64_t peak_atoms = 0;                   ///< Final instance size.
  uint64_t peak_position_index_keys = 0;     ///< Distinct (pred,pos,term) keys.
  uint64_t peak_position_index_entries = 0;  ///< Total posting-list entries.
  uint64_t peak_dedup_keys = 0;              ///< Applied trigger keys.
  uint32_t discovery_threads = 1;            ///< Effective worker count.
  uint64_t parallel_rounds = 0;              ///< Rounds using the pool.
  /// Wall time of terminal discovery passes that produced no per-round
  /// entry — the empty pass that proves termination, or an aborted one.
  /// Kept separate from per_round so round timings still sum to round
  /// activity; total discovery time is the per-round sum plus this.
  double final_discovery_seconds = 0.0;
  /// High-water mark of bytes charged to the run's memory budget. When
  /// the budget is shared across runs this is the *shared* peak — it can
  /// include other runs' charges.
  uint64_t peak_memory_bytes = 0;
  /// Bytes still charged at the end of the run (the instance's retained
  /// capacity; 0 only for an empty run).
  uint64_t memory_in_use_bytes = 0;
  /// The enforced hard limit (0 when unlimited).
  uint64_t memory_budget_bytes = 0;
  /// Pre-size requests the budget denied (each denial stops the run, so
  /// this exceeds 1 only for a shared budget).
  uint64_t memory_denials = 0;
  /// Load-phase observability (serialized as load_ms / edb_atoms /
  /// load_bytes): wall time of seeding the instance from the database —
  /// for an EDB-backed run this includes the bulk loader's parse (or
  /// snapshot open) time —, distinct database atoms seeded, and input
  /// bytes the loader consumed (0 for an in-memory std::vector<Atom>
  /// database).
  double load_seconds = 0.0;
  uint64_t edb_atoms = 0;
  uint64_t load_bytes = 0;
};

/// A single chase execution. Construct, Execute() once, then inspect.
///
/// The engine uses round-based semi-naive trigger discovery: in each round
/// it enumerates homomorphisms that touch at least one atom added in the
/// previous round (pivot decomposition), filters them through the
/// variant's dedup key, and applies the survivors in the configured
/// order. This realizes the fairness condition of the chase definition.
/// fuzz/reference_chase.h restates these semantics naively; the two are
/// kept bit-identical by the fuzz oracles.
class EdbDatabase;
struct Vocabulary;

class ChaseRun {
 public:
  /// `rules` must outlive the run. `database` atoms must be ground.
  ChaseRun(const RuleSet& rules, ChaseOptions options,
           const std::vector<Atom>& database);

  /// Seeds from a pre-built EDB (see storage/edb.h): the dictionary is
  /// interned into `vocabulary` in dictionary order and every table is
  /// block-inserted through Instance::TryAddBatch — constant ids, atom
  /// ids and the whole downstream run are bit-identical to the
  /// std::vector<Atom> constructor over the same fact stream. Check
  /// seed_status() before Execute(): a predicate arity conflict between
  /// `rules` and the EDB (or a corrupt snapshot) surfaces there. A
  /// budget denial of the seed reserve — or an EDB whose own load
  /// already tripped the budget — is not an error: Execute() then
  /// returns kMemoryBudgetExceeded immediately, partial stats intact.
  ChaseRun(const RuleSet& rules, ChaseOptions options, const EdbDatabase& edb,
           Vocabulary* vocabulary);

  /// Ok unless the EDB constructor failed to seed (see above). Execute()
  /// on a run with a failed seed is a checked error.
  const Status& seed_status() const { return seed_status_; }

  /// Observer invoked after each newly derived atom; return false to abort
  /// the run (outcome kAborted). May inspect the run through the getters.
  using AtomObserver = std::function<bool(AtomId)>;

  /// Runs the chase to completion, cap, or abort. Call exactly once.
  /// std::bad_alloc never escapes: if the allocator fails despite the
  /// budget (or with no budget set), the run degrades to
  /// kMemoryBudgetExceeded with whatever stats survived.
  ChaseOutcome Execute(const AtomObserver& observer = nullptr);

  const Instance& instance() const { return instance_; }
  /// The budget this run charges: options_.memory_budget if provided,
  /// else a private one built from options_.max_memory_bytes (unlimited
  /// when that is 0). Never null.
  const MemoryBudget& memory_budget() const { return *memory_budget_; }
  const RuleSet& rules() const { return rules_; }
  const std::vector<AtomProvenance>& provenance() const { return provenance_; }
  const std::vector<TriggerRecord>& triggers() const { return triggers_; }

  uint64_t applied_triggers() const { return applied_triggers_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t nulls_created() const { return next_null_; }
  uint64_t hom_discoveries() const { return hom_discoveries_; }
  uint64_t join_work() const { return join_work_; }
  const ChaseStats& stats() const { return stats_; }

  /// The variables whose images make up the rule's trigger key: every
  /// universal variable for the oblivious chase, the frontier otherwise.
  /// Two triggers of a rule are the same trigger iff their images agree
  /// on these. Exposed for the termination deciders' pump-replay
  /// verification.
  const std::vector<VarId>& TriggerKeyVariables(uint32_t rule_index) const {
    return trigger_keys_[rule_index].key_variables();
  }

  /// True if a trigger of the rule with these images (one term per rule
  /// variable: a Binding's data() or a BindingSegment row) has already
  /// been discovered, and so applied or, for the restricted variant,
  /// found satisfied or pending in the current round.
  bool WasTriggerApplied(uint32_t rule_index, const Term* images) const {
    return trigger_keys_[rule_index].Contains(images);
  }

 private:
  /// Shared construction tail: everything but the seeding (budget
  /// attachment, stats setup, the discovery units). The public
  /// constructors delegate here, then seed.
  ChaseRun(const RuleSet& rules, ChaseOptions options);

  /// One (rule, pivot) discovery unit: the pivot conjunct is constrained
  /// to the delta, so the units partition a round's homomorphisms. Built
  /// once per run; each pass sets only the watermark and refills `rows`.
  struct DiscoveryUnit {
    uint32_t rule = 0;
    BindingSegment rows;
    /// The unit's search: conjuncts before the pivot match old atoms, the
    /// pivot delta atoms, later ones any atom; the out-flags point here.
    HomSearchOptions search;
    uint64_t visits = 0;
    bool budget_exhausted = false;  ///< Join budget or row cap ran out.
    bool governor_tripped = false;
  };

  /// A discovered, deduplicated trigger awaiting application: a view of
  /// its binding row in its unit's segment, valid until the next
  /// discovery pass.
  struct PendingTrigger {
    uint32_t rule;
    const Term* row;
  };
  static_assert(std::is_trivially_copyable_v<PendingTrigger>);

  /// Outcome of one restricted-chase head-satisfaction check.
  enum class HeadCheck {
    kSatisfied,    ///< The head already maps into the instance.
    kUnsatisfied,  ///< It does not; the trigger must fire.
    kStopped,      ///< Governor/injector tripped or the join budget ran
                   ///< out mid-check; *outcome carries the abort outcome.
  };

  /// Governed head-satisfaction check: true iff the rule head, under the
  /// frontier part of `binding` (one term per rule variable), already
  /// maps into the instance.
  /// Checkpoints at FaultSite::kHeadCheck on entry and threads the
  /// governor + join budget into the search; full rules take a ground
  /// fast path (one dedup probe per head atom, counted as one join-work
  /// visit each).
  HeadCheck CheckHeadSatisfied(const Tgd& rule, const Term* binding,
                               ChaseOutcome* outcome);

  /// Applies pending_ in order (defined in batch_apply.cc; see
  /// HeadBlock). Every head atom is staged and enters the instance
  /// through a block flush: before each restricted head check, after
  /// each trigger when an observer is attached, around the one atom that
  /// could cross max_atoms, and at the end. Returns false when the run
  /// must stop, with *outcome set; staged atoms are always flushed before
  /// returning.
  bool ApplyPendingBatch(const AtomObserver& observer, RoundStats* round,
                         ChaseOutcome* outcome);

  /// Appends the TriggerRecord of a trigger just counted as applied (its
  /// nulls in extended_scratch_): binding, body-atom ids and created
  /// nulls. Its produced ids are appended when its rows flush.
  void RecordTrigger(uint32_t rule_index, const Term* binding);

  /// True if the run must stop here: consults the fault injector (when
  /// set) and then the governor, writing the abort outcome to *outcome.
  /// Pure (no member writes) so parallel workers may call it, provided
  /// any fault injector is thread-safe.
  bool GovernorStop(FaultSite site, uint64_t ordinal,
                    ChaseOutcome* outcome) const;

  /// Governor checkpoint at a storage-growth decision point: like
  /// GovernorStop(FaultSite::kAllocation, alloc_checks_++), but
  /// additionally denies the growth when charging `projected_bytes` more
  /// would cross the budget's hard limit (kMemoryBudgetExceeded before
  /// the memory is committed).
  bool AllocationStop(uint64_t projected_bytes, ChaseOutcome* outcome);

  /// The body of Execute(); the public wrapper adds the bad_alloc
  /// containment boundary.
  ChaseOutcome ExecuteLoop(const AtomObserver& observer);

  /// One discovery pass and, when it finds triggers, the round that
  /// applies them. Returns false when the run stops, with *outcome set.
  bool ExecuteRound(AtomId* watermark, const AtomObserver& observer,
                    ChaseOutcome* outcome);

  /// One round of semi-naive trigger discovery into pending_: every
  /// homomorphism whose image touches an atom with id >= `watermark`,
  /// deduplicated through trigger_keys_, in deterministic (rule, pivot,
  /// discovery) order. Each unit in units_ runs the backtracking search
  /// into its segment, inline or on the pool per discovery_threads; the
  /// rows then merge in unit order. Fills the discovery fields of
  /// `draft` (estimated_work, parallel_discovery, fallback_units,
  /// binding_rows). Sets *capped when a discovery cap was hit (results
  /// may then be incomplete). Returns false, with *stop_outcome set and
  /// pending_ empty, when the governor or fault injector tripped
  /// mid-phase.
  bool DiscoverTriggers(AtomId watermark, RoundStats* draft, bool* capped,
                        ChaseOutcome* stop_outcome);

  /// Estimated join work for this round's discovery pass: for each
  /// (rule, pivot) unit, delta cardinality of the pivot predicate times
  /// the largest other-conjunct relation (its candidate fan-out),
  /// saturating at uint64 max. Cheap — two index lookups per unit — and
  /// feeds the serial/parallel cutover.
  uint64_t EstimateDiscoveryWork(AtomId watermark) const;

  /// The executor for parallel rounds: options_.executor if provided,
  /// else a lazily created pool owned by this run.
  ThreadPool* Pool(uint32_t num_threads);

  /// Folds current index sizes into the stats peaks.
  void UpdateStatsPeaks();

  const RuleSet& rules_;
  ChaseOptions options_;
  /// The effective byte budget (see memory_budget()). Declared before
  /// governor_ and instance_ so it outlives both: the governor holds a
  /// raw observer pointer, and the instance / batch block release their
  /// charges into it on destruction.
  std::shared_ptr<MemoryBudget> memory_budget_;
  /// Deadline + cancellation bundle, shared read-only with discovery
  /// workers and join searches.
  RunGovernor governor_;
  Instance instance_;
  std::vector<AtomProvenance> provenance_;
  std::vector<TriggerRecord> triggers_;

  /// Discovered trigger keys, one table per rule (see TriggerKeyTable).
  std::vector<TriggerKeyTable> trigger_keys_;

  /// Lazily created pool for parallel discovery when the caller did not
  /// supply ChaseOptions::executor. Lives for the rest of the run so
  /// every parallel round reuses the same parked workers.
  std::shared_ptr<ThreadPool> owned_pool_;

  /// The run's (rule, pivot) discovery units, in unit order. Sized once
  /// and never moved: each unit's search points at its own out-flags.
  std::vector<DiscoveryUnit> units_;
  /// The current round's triggers, reused across rounds.
  std::vector<PendingTrigger> pending_;

  ChaseStats stats_;
  uint64_t applied_triggers_ = 0;
  uint64_t rounds_ = 0;
  uint64_t hom_discoveries_ = 0;
  uint64_t join_work_ = 0;
  /// Head-satisfaction checks performed (the kHeadCheck fault ordinal).
  uint64_t head_checks_ = 0;
  /// Storage-growth decision points passed (the kAllocation fault
  /// ordinal). Serial: bumped only on the apply thread and at round
  /// starts.
  uint64_t alloc_checks_ = 0;
  /// Reused scratch: the apply phase and head checks run allocation-free
  /// once these have warmed to the run's working sizes.
  Binding extended_scratch_;
  Binding frontier_scratch_;
  std::vector<Term> head_scratch_;
  HeadBlock batch_block_;
  /// Next labeled-null id. 64-bit so the max_nulls comparison cannot wrap
  /// (a 32-bit counter would silently recycle ids past 2^32).
  uint64_t next_null_ = 0;
  bool executed_ = false;
  /// Set when the EDB seed was budget-denied (or the EDB's own load
  /// tripped the budget): Execute() returns kMemoryBudgetExceeded at its
  /// first checkpoint, with whatever prefix was seeded intact.
  bool seed_denied_ = false;
  /// Non-OK when the EDB constructor could not seed (arity conflict,
  /// corrupt snapshot); see seed_status().
  Status seed_status_;
};

/// Convenience result bundle for RunChase(). Carries every counter the
/// run exposes — callers capping discovery work need hom_discoveries and
/// join_work to observe how close a run came to its caps.
struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  Instance instance;
  uint64_t applied_triggers = 0;
  uint64_t rounds = 0;
  uint64_t nulls_created = 0;
  uint64_t hom_discoveries = 0;
  uint64_t join_work = 0;
  ChaseStats stats;
};

/// One-shot helper: runs the chase of `database` w.r.t. `rules`.
ChaseResult RunChase(const RuleSet& rules, const ChaseOptions& options,
                     const std::vector<Atom>& database);

class MetricsRegistry;

/// Folds one run's ChaseStats into the metrics registry (the global one
/// when `registry` is null) under the "chase." prefix: run/round/trigger
/// counters — including the parallel-engine fields parallel_rounds and
/// per-round estimated_work — plus peak gauges. Counters accumulate
/// across runs; peak gauges fold a process-wide maximum.
void PublishChaseMetrics(const ChaseStats& stats,
                         MetricsRegistry* registry = nullptr);

/// Checks that `instance` satisfies every rule (every body homomorphism
/// extends to a head homomorphism). A terminated chase must satisfy this.
bool IsModelOf(const Instance& instance, const RuleSet& rules);

/// Governed IsModelOf: every body enumeration and head check runs under
/// `governor` checkpoints and a shared visit budget, so a pathological
/// model check cannot outlive a deadline. Returns nullopt when the
/// governor tripped or `max_join_work` ran out before a verdict (a
/// violation found before the trip is still conclusive). Accumulates the
/// visits performed into *join_work when non-null.
std::optional<bool> IsModelOfGoverned(
    const Instance& instance, const RuleSet& rules, const RunGovernor& governor,
    uint64_t max_join_work = std::numeric_limits<uint64_t>::max(),
    uint64_t* join_work = nullptr);

}  // namespace gchase

#endif  // GCHASE_CHASE_CHASE_H_
