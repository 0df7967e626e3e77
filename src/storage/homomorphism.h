#ifndef GCHASE_STORAGE_HOMOMORPHISM_H_
#define GCHASE_STORAGE_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "base/governor.h"
#include "model/atom.h"
#include "storage/instance.h"

namespace gchase {

/// A variable binding: `binding[v]` is the image of variable v, or
/// `kUnbound` if v is not (yet) mapped.
using Binding = std::vector<Term>;

/// Sentinel for unbound variables (a null with the max index; the chase
/// never allocates it).
inline constexpr uint32_t kUnboundIndex = (1u << 30) - 1;
inline Term UnboundTerm() { return Term::Null(kUnboundIndex); }
inline bool IsBound(Term t) { return t != UnboundTerm(); }

/// Options for one FindHomomorphisms call.
/// (MatchRange itself lives in storage/instance.h, next to the posting
/// probe API that clips to it.)
///
/// Concurrency: a search only reads the instance, so any number of
/// searches may run in parallel against one Instance that no thread is
/// mutating. The `visits` and `budget_exhausted` out-pointers are written
/// without synchronization — give each concurrent search its own.
struct HomSearchOptions {
  /// Per-conjunct match ranges; empty means kAll for every conjunct.
  std::vector<MatchRange> ranges;
  /// Id boundary between "old" and "delta" atoms.
  AtomId watermark = 0;
  /// Cap on candidate atoms visited by the backtracking search (bounds
  /// join *work*, not just results; high-fanout unguarded joins can do
  /// enormous work while yielding few homomorphisms). A node's candidates
  /// outside its conjunct's range are skipped unscanned but still count
  /// as visits, so the charge does not depend on the ranges.
  uint64_t max_candidate_visits = std::numeric_limits<uint64_t>::max();
  /// Set to true when the search stopped because the visit cap was hit
  /// (results are then incomplete). Optional.
  bool* budget_exhausted = nullptr;
  /// Incremented by the number of candidate visits performed. Optional.
  uint64_t* visits = nullptr;
  /// Run governor checked about every 1024 candidate visits when set — the
  /// cooperative checkpoint that keeps a single pathological join from
  /// outliving its deadline. A tripped governor stops the search like an
  /// exhausted budget, but reports through *governor_tripped instead
  /// (results are then incomplete). The governor itself is thread-safe;
  /// give each concurrent search its own tripped flag.
  const RunGovernor* governor = nullptr;
  bool* governor_tripped = nullptr;
};

/// Backtracking conjunctive matcher.
///
/// Enumerates homomorphisms h from a conjunction of atoms (whose variables
/// are dense ids < num_variables) into `instance`, extending an optional
/// initial binding. Candidate atoms are drawn from the instance's position
/// index for the most selective bound position (falling back to the
/// per-predicate list), and conjuncts are matched in a greedy
/// smallest-candidate-set order.
class HomomorphismFinder {
 public:
  explicit HomomorphismFinder(const Instance& instance)
      : instance_(instance) {}

  /// Invokes `callback` once per homomorphism with the complete binding.
  /// The callback returns true to continue enumerating, false to stop.
  /// Variables of the conjunction not bound by any conjunct (impossible in
  /// valid TGD bodies) stay kUnbound in the reported binding.
  void FindAll(const std::vector<Atom>& conjunction, uint32_t num_variables,
               const std::function<bool(const Binding&)>& callback) const {
    FindAllWithOptions(conjunction, num_variables, HomSearchOptions{},
                       Binding(), callback);
  }

  /// Full-control variant: semi-naive ranges plus an initial partial
  /// binding (`initial` may be empty or sized num_variables).
  void FindAllWithOptions(const std::vector<Atom>& conjunction,
                          uint32_t num_variables,
                          const HomSearchOptions& options,
                          const Binding& initial,
                          const std::function<bool(const Binding&)>& callback)
      const;

  /// Returns the first homomorphism found, if any.
  std::optional<Binding> FindOne(const std::vector<Atom>& conjunction,
                                 uint32_t num_variables,
                                 const Binding& initial = Binding()) const;

  /// FindOne under full search options: visit budget, visit accounting
  /// and governor checkpoints apply exactly as in FindAllWithOptions. A
  /// nullopt result is conclusive only if neither `budget_exhausted` nor
  /// `governor_tripped` was set.
  std::optional<Binding> FindOneWithOptions(const std::vector<Atom>& conjunction,
                                            uint32_t num_variables,
                                            const HomSearchOptions& options,
                                            const Binding& initial) const;

  /// True if some homomorphism exists (boolean CQ evaluation).
  bool Exists(const std::vector<Atom>& conjunction, uint32_t num_variables,
              const Binding& initial = Binding()) const {
    return FindOne(conjunction, num_variables, initial).has_value();
  }

  /// Exists under full search options — every engine-side satisfaction
  /// check goes through this so deadlines, cancellation and join-work
  /// accounting reach into the search (a bare Exists has no cooperative
  /// checkpoint and can outlive its run's deadline). A false result is
  /// conclusive only if neither out-flag was set.
  bool ExistsWithOptions(const std::vector<Atom>& conjunction,
                         uint32_t num_variables,
                         const HomSearchOptions& options,
                         const Binding& initial) const {
    return FindOneWithOptions(conjunction, num_variables, options, initial)
        .has_value();
  }

 private:
  const Instance& instance_;
};

/// Applies `binding` to a rule atom: variables are replaced by their
/// images (must be bound), constants pass through.
Atom SubstituteAtom(const Atom& atom, const Binding& binding);

}  // namespace gchase

#endif  // GCHASE_STORAGE_HOMOMORPHISM_H_
