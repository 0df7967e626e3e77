#ifndef GCHASE_FUZZ_REFERENCE_CHASE_H_
#define GCHASE_FUZZ_REFERENCE_CHASE_H_

#include <vector>

#include "chase/chase.h"
#include "model/tgd.h"

namespace gchase {

/// A naive, round-based chase: the independent oracle the engine in
/// src/chase/ is checked against.
///
/// It restates the round semantics of the oblivious, semi-oblivious and
/// restricted chase (Grahne & Onet, "Anatomy of the chase",
/// arXiv:1303.6682) as plainly as possible. Each round enumerates, per
/// (rule, pivot), every body homomorphism whose pivot conjunct maps into
/// the previous round's atoms, the conjuncts before the pivot into older
/// atoms and those after it anywhere (a backtracking HomomorphismFinder
/// search per unit). Triggers are deduplicated through a std::set of
/// variant keys: the rule and the images of all universal variables
/// (oblivious) or of the frontier (otherwise). The round's triggers are
/// then ordered (FIFO, datalog-first or seeded random) and applied one at
/// a time. A restricted trigger is first checked with a
/// HomomorphismFinder head search under its frontier, and head atoms go
/// in with one Instance::Insert each.
///
/// It shares no code with the engine: it reads the engine's option and
/// result types so the two compare field by field, and calls nothing
/// defined under src/chase/. Of ChaseOptions it honors the variant, the
/// order and its seed, the count caps max_steps, max_atoms, max_nulls and
/// max_hom_discoveries (which stop a run exactly where the engine's do),
/// and the deadline and cancellation token (so a fuzz trial cannot hang).
/// max_join_work must be left unlimited: the reference does not meter
/// join work. Every other field is ignored.
///
/// The result carries the outcome, the instance, applied triggers,
/// rounds, created nulls, hom discoveries, and per-rule (discovered,
/// applied, skipped_satisfied) and per-round (delta_atoms, candidates,
/// applied) stats. Everything else, join_work included, stays zero.
ChaseResult RunReferenceChase(const RuleSet& rules, const ChaseOptions& options,
                              const std::vector<Atom>& database);

}  // namespace gchase

#endif  // GCHASE_FUZZ_REFERENCE_CHASE_H_
