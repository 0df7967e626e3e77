#include "storage/homomorphism.h"

#include <algorithm>
#include <limits>

namespace gchase {

namespace {

/// Backtracking search state for one FindAllWithOptions call.
class Search {
 public:
  Search(const Instance& instance, const std::vector<Atom>& conjunction,
         uint32_t num_variables, const HomSearchOptions& options,
         const std::function<bool(const Binding&)>& callback)
      : instance_(instance),
        conjunction_(conjunction),
        options_(options),
        callback_(callback),
        state_(conjunction.size() + num_variables, 0) {}

  void Run(Binding* binding) {
    binding_ = binding;
    stop_ = false;
    Recurse(0);
    if (options_.visits != nullptr) *options_.visits += visited_;
  }

 private:
  /// Governor checkpoint cadence, in candidate visits.
  static constexpr uint64_t kPollInterval = 1024;

  MatchRange RangeOf(std::size_t conjunct) const {
    if (options_.ranges.empty()) return MatchRange::kAll;
    return options_.ranges[conjunct];
  }

  /// Estimated candidate count for a conjunct under the current binding,
  /// plus the most selective (pred, pos, term) probe if one exists.
  struct Plan {
    std::size_t estimate = std::numeric_limits<std::size_t>::max();
    bool use_position = false;
    uint32_t position = 0;
    Term term;
  };

  Plan PlanFor(const Atom& atom) const {
    Plan plan;
    plan.estimate = instance_.AtomsWithPredicate(atom.predicate).size();
    for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
      Term t = atom.args[pos];
      Term image;
      if (t.IsVariable()) {
        image = (*binding_)[t.index()];
        if (!IsBound(image)) continue;
      } else {
        image = t;
      }
      std::size_t count =
          instance_.AtomsWithTermAt(atom.predicate, pos, image).size();
      if (count < plan.estimate) {
        plan.estimate = count;
        plan.use_position = true;
        plan.position = pos;
        plan.term = image;
      }
    }
    return plan;
  }

  /// Charges `n` candidate visits. Returns false, with the search stopped,
  /// when that runs past the visit budget (visits then read budget + 1,
  /// wherever in the charged run the budget ended) or when a governor
  /// checkpoint falls due and finds the run tripped.
  bool Charge(uint64_t n) {
    if (n == 0) return true;
    if (n > options_.max_candidate_visits - visited_) {
      visited_ = options_.max_candidate_visits + 1;
      if (options_.budget_exhausted != nullptr) {
        *options_.budget_exhausted = true;
      }
      stop_ = true;
      return false;
    }
    visited_ += n;
    if (options_.governor != nullptr && visited_ >= next_poll_) {
      next_poll_ = visited_ + kPollInterval;
      if (options_.governor->Check() != GovernorState::kOk) {
        if (options_.governor_tripped != nullptr) {
          *options_.governor_tripped = true;
        }
        stop_ = true;
        return false;
      }
    }
    return true;
  }

  /// Unifies `pattern` with `fact`, binding free variables and pushing
  /// them on the trail (also on failure: the caller always undoes).
  bool Unify(const Atom& pattern, const AtomView& fact) {
    for (uint32_t pos = 0; pos < pattern.arity(); ++pos) {
      const Term t = pattern.args[pos];
      const Term image = fact.args[pos];
      if (t.IsVariable()) {
        Term& slot = (*binding_)[t.index()];
        if (IsBound(slot)) {
          if (slot != image) return false;
        } else {
          slot = image;
          state_[trail_begin() + trail_size_++] = t.index();
        }
      } else if (t != image) {
        return false;
      }
    }
    return true;
  }

  /// Unbinds every variable bound since the trail stood at `mark`.
  void Undo(std::size_t mark) {
    while (trail_size_ > mark) {
      (*binding_)[state_[trail_begin() + --trail_size_]] = UnboundTerm();
    }
  }

  std::size_t trail_begin() const { return conjunction_.size(); }

  void Recurse(std::size_t depth) {
    if (stop_) return;
    if (depth == conjunction_.size()) {
      if (!callback_(*binding_)) stop_ = true;
      return;
    }
    // Pick the unmatched conjunct with the smallest candidate estimate.
    std::size_t best = conjunction_.size();
    Plan best_plan;
    for (std::size_t i = 0; i < conjunction_.size(); ++i) {
      if (state_[i] != 0) continue;
      Plan plan = PlanFor(conjunction_[i]);
      if (best == conjunction_.size() || plan.estimate < best_plan.estimate) {
        best = i;
        best_plan = plan;
      }
    }
    GCHASE_CHECK(best < conjunction_.size());
    const Atom& pattern = conjunction_[best];
    const std::vector<AtomId>& candidates =
        best_plan.use_position
            ? instance_.AtomsWithTermAt(pattern.predicate, best_plan.position,
                                        best_plan.term)
            : instance_.AtomsWithPredicate(pattern.predicate);
    // Ids are append-ordered, so the candidates in range are one span.
    // Only the span is scanned, but the whole list is charged, the parts
    // outside the range as one visit each, so join work and budget trip
    // points do not depend on the range.
    const PostingView span =
        ClipPostings(candidates, RangeOf(best), options_.watermark);

    state_[best] = 1;
    const std::size_t mark = trail_size_;
    if (Charge(span.begin - candidates.data())) {
      for (const AtomId* it = span.begin; it != span.end && !stop_; ++it) {
        if (!Charge(1)) break;
        if (Unify(pattern, instance_.atom(*it))) Recurse(depth + 1);
        Undo(mark);
      }
      if (!stop_) Charge(candidates.data() + candidates.size() - span.end);
    }
    state_[best] = 0;
  }

  const Instance& instance_;
  const std::vector<Atom>& conjunction_;
  const HomSearchOptions& options_;
  const std::function<bool(const Binding&)>& callback_;
  /// The search's one scratch allocation: a matched flag per conjunct,
  /// then the unification trail shared by all depths (a variable is
  /// bound at most once along a branch, so num_variables slots suffice).
  std::vector<uint32_t> state_;
  std::size_t trail_size_ = 0;
  Binding* binding_ = nullptr;
  uint64_t visited_ = 0;
  uint64_t next_poll_ = kPollInterval;
  bool stop_ = false;
};

}  // namespace

void HomomorphismFinder::FindAllWithOptions(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const HomSearchOptions& options, const Binding& initial,
    const std::function<bool(const Binding&)>& callback) const {
  GCHASE_CHECK(options.ranges.empty() ||
               options.ranges.size() == conjunction.size());
  Binding binding(num_variables, UnboundTerm());
  for (std::size_t v = 0; v < initial.size() && v < binding.size(); ++v) {
    binding[v] = initial[v];
  }
  if (conjunction.empty()) {
    callback(binding);
    return;
  }
  Search search(instance_, conjunction, num_variables, options, callback);
  search.Run(&binding);
}

std::optional<Binding> HomomorphismFinder::FindOne(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const Binding& initial) const {
  return FindOneWithOptions(conjunction, num_variables, HomSearchOptions{},
                            initial);
}

std::optional<Binding> HomomorphismFinder::FindOneWithOptions(
    const std::vector<Atom>& conjunction, uint32_t num_variables,
    const HomSearchOptions& options, const Binding& initial) const {
  std::optional<Binding> result;
  FindAllWithOptions(conjunction, num_variables, options, initial,
                     [&result](const Binding& binding) {
                       result = binding;
                       return false;  // Stop after the first match.
                     });
  return result;
}

Atom SubstituteAtom(const Atom& atom, const Binding& binding) {
  Atom out;
  out.predicate = atom.predicate;
  out.args.reserve(atom.arity());
  for (Term t : atom.args) {
    if (t.IsVariable()) {
      GCHASE_CHECK(t.index() < binding.size());
      Term image = binding[t.index()];
      GCHASE_CHECK_MSG(IsBound(image), "substitution with unbound variable");
      out.args.push_back(image);
    } else {
      out.args.push_back(t);
    }
  }
  return out;
}

}  // namespace gchase
