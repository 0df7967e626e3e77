#include "storage/homomorphism.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "base/rng.h"
#include "gtest/gtest.h"
#include "storage/query.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

/// Loads facts into an instance.
Instance MakeInstance(const std::vector<Atom>& facts) {
  Instance instance;
  for (const Atom& atom : facts) instance.Insert(atom);
  return instance;
}

TEST(HomomorphismTest, EnumeratesAllMatches) {
  ParsedProgram program = MustParse(
      "e(a,b). e(b,c). e(c,d). e(b,d).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query =
      ParseQuery("e(X,Y), e(Y,Z)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 3, [&count](const Binding&) {
    ++count;
    return true;
  });
  // Paths of length 2: a-b-c, a-b-d, b-c-d.
  EXPECT_EQ(count, 3);
}

TEST(HomomorphismTest, RepeatedVariablesConstrain) {
  ParsedProgram program = MustParse("p(a,a). p(a,b).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X,X)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  std::optional<Binding> match = finder.FindOne(query->atoms, 1);
  ASSERT_TRUE(match.has_value());
  Term a = Term::Constant(*program.vocabulary.constants.Find("a"));
  EXPECT_EQ((*match)[0], a);
}

TEST(HomomorphismTest, ConstantsInPatternMustMatch) {
  ParsedProgram program = MustParse("p(a,b). p(c,b).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(a, Y)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 1, [&count](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, InitialBindingRestricts) {
  ParsedProgram program = MustParse("p(a,b). p(c,d).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X,Y)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  Term c = Term::Constant(*program.vocabulary.constants.Find("c"));
  Binding initial(2, UnboundTerm());
  initial[0] = c;
  std::optional<Binding> match = finder.FindOne(query->atoms, 2, initial);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ((*match)[0], c);
  Term d = Term::Constant(*program.vocabulary.constants.Find("d"));
  EXPECT_EQ((*match)[1], d);
}

TEST(HomomorphismTest, DeltaModeRequiresNewAtoms) {
  ParsedProgram program = MustParse("e(a,b). e(b,c).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("e(X,Y)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  HomSearchOptions options;
  options.watermark = 1;  // atom 0 is "old", atom 1 is "delta"
  options.ranges = {MatchRange::kDeltaOnly};
  int count = 0;
  finder.FindAllWithOptions(query->atoms, 2, options, Binding(),
                            [&count](const Binding&) {
                              ++count;
                              return true;
                            });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, EarlyStopViaCallback) {
  ParsedProgram program = MustParse("p(a). p(b). p(c).\n");
  Instance instance = MakeInstance(program.facts);
  StatusOr<ParsedQuery> query = ParseQuery("p(X)", &program.vocabulary);
  ASSERT_TRUE(query.ok());
  HomomorphismFinder finder(instance);
  int count = 0;
  finder.FindAll(query->atoms, 1, [&count](const Binding&) {
    ++count;
    return count < 2;  // stop after the second match
  });
  EXPECT_EQ(count, 2);
}

/// Every binding of `body` (over `num_variables` variables) into
/// `instance` under `ranges`, by nested loops over all atoms — no index,
/// no conjunct ordering, no clipping — sorted for comparison.
std::vector<Binding> BruteForceMatches(const Instance& instance,
                                       const std::vector<Atom>& body,
                                       uint32_t num_variables,
                                       const std::vector<MatchRange>& ranges,
                                       AtomId watermark) {
  std::vector<Binding> out;
  Binding binding(num_variables, UnboundTerm());
  const std::function<void(std::size_t)> extend = [&](std::size_t i) {
    if (i == body.size()) {
      out.push_back(binding);
      return;
    }
    for (AtomId id = 0; id < instance.size(); ++id) {
      if ((ranges[i] == MatchRange::kOldOnly && id >= watermark) ||
          (ranges[i] == MatchRange::kDeltaOnly && id < watermark)) {
        continue;
      }
      const AtomView fact = instance.atom(id);
      if (fact.predicate != body[i].predicate) continue;
      const Binding saved = binding;
      bool ok = true;
      for (uint32_t pos = 0; ok && pos < body[i].arity(); ++pos) {
        const Term t = body[i].args[pos];
        if (!t.IsVariable()) {
          ok = t == fact.args[pos];
        } else if (IsBound(binding[t.index()])) {
          ok = binding[t.index()] == fact.args[pos];
        } else {
          binding[t.index()] = fact.args[pos];
        }
      }
      if (ok) extend(i + 1);
      binding = saved;
    }
  };
  extend(0);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HomomorphismTest, MatchesBruteForceUnderRanges) {
  // Random instances over two binary and one unary predicate, random
  // 1-3-conjunct bodies with constants and repeated variables, every
  // old/delta/all range assignment at several watermarks. Engine
  // discovery and the reference chase both enumerate through this
  // search, so this is the check that does not share its code.
  constexpr uint32_t kArity[] = {2, 2, 1};
  Rng rng(20150531);
  uint64_t compared = 0, nonempty = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Instance instance;
    const int atoms = 8 + static_cast<int>(rng.NextBelow(17));
    for (int a = 0; a < atoms; ++a) {
      const PredicateId pred = static_cast<PredicateId>(rng.NextBelow(3));
      std::vector<Term> args;
      for (uint32_t pos = 0; pos < kArity[pred]; ++pos) {
        args.push_back(rng.NextBelow(4) == 0
                           ? Term::Null(rng.NextBelow(2))
                           : Term::Constant(static_cast<uint32_t>(
                                 rng.NextBelow(4))));
      }
      instance.Insert(Atom(pred, std::move(args)));
    }
    const std::size_t conjuncts = 1 + rng.NextBelow(3);
    const uint32_t num_variables = 4;
    std::vector<Atom> body;
    for (std::size_t c = 0; c < conjuncts; ++c) {
      const PredicateId pred = static_cast<PredicateId>(rng.NextBelow(3));
      std::vector<Term> args;
      for (uint32_t pos = 0; pos < kArity[pred]; ++pos) {
        // Few variables, so repeats within and across conjuncts are common.
        args.push_back(rng.NextBelow(5) == 0
                           ? Term::Constant(static_cast<uint32_t>(
                                 rng.NextBelow(4)))
                           : Term::Variable(static_cast<uint32_t>(
                                 rng.NextBelow(num_variables))));
      }
      body.emplace_back(pred, std::move(args));
    }
    const AtomId sizes[] = {0, instance.size() / 3, instance.size() / 2,
                            instance.size()};
    for (AtomId watermark : sizes) {
      std::size_t assignments = 1;
      for (std::size_t c = 0; c < conjuncts; ++c) assignments *= 3;
      for (std::size_t code = 0; code < assignments; ++code) {
        std::vector<MatchRange> ranges;
        for (std::size_t c = 0, rest = code; c < conjuncts; ++c, rest /= 3) {
          ranges.push_back(static_cast<MatchRange>(rest % 3));
        }
        HomSearchOptions options;
        options.ranges = ranges;
        options.watermark = watermark;
        std::vector<Binding> found;
        HomomorphismFinder(instance).FindAllWithOptions(
            body, num_variables, options, Binding(),
            [&found](const Binding& binding) {
              found.push_back(binding);
              return true;
            });
        std::sort(found.begin(), found.end());
        ASSERT_EQ(found, BruteForceMatches(instance, body, num_variables,
                                           ranges, watermark))
            << "trial " << trial << " watermark " << watermark
            << " ranges " << code;
        ++compared;
        if (!found.empty()) ++nonempty;
      }
    }
  }
  // The sweep must exercise matches, not just agree on empty sets.
  EXPECT_GT(nonempty, compared / 4);
}

TEST(HomomorphismTest, ClippedRangesChargeUnclippedVisits) {
  // Ten atoms p(c0..c9), ids 0..9, watermark 4: ids 0-3 are old, 4-9
  // delta. A range skips part of the list unscanned but charges all of
  // it, so visits do not depend on the range.
  Instance instance;
  for (uint32_t i = 0; i < 10; ++i) {
    instance.Insert(Atom(0, {Term::Constant(i)}));
  }
  const std::vector<Atom> body = {Atom(0, {Term::Variable(0)})};
  struct Run {
    uint64_t rows = 0;
    uint64_t visits = 0;
    bool exhausted = false;
  };
  const auto run = [&](MatchRange range, uint64_t budget) {
    Run result;
    HomSearchOptions options;
    options.ranges = {range};
    options.watermark = 4;
    options.max_candidate_visits = budget;
    options.visits = &result.visits;
    options.budget_exhausted = &result.exhausted;
    HomomorphismFinder(instance).FindAllWithOptions(
        body, 1, options, Binding(), [&result](const Binding&) {
          ++result.rows;
          return true;
        });
    return result;
  };
  constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();
  for (MatchRange range :
       {MatchRange::kAll, MatchRange::kOldOnly, MatchRange::kDeltaOnly}) {
    const Run full = run(range, kUnlimited);
    EXPECT_EQ(full.visits, 10u);
    EXPECT_FALSE(full.exhausted);
    // A budget of exactly the list length is enough.
    EXPECT_FALSE(run(range, 10).exhausted);
  }
  EXPECT_EQ(run(MatchRange::kOldOnly, kUnlimited).rows, 4u);
  EXPECT_EQ(run(MatchRange::kDeltaOnly, kUnlimited).rows, 6u);

  // Budget ends inside the skipped old prefix of a delta scan: visits
  // read budget + 1, as if each skipped candidate had been visited.
  Run prefix = run(MatchRange::kDeltaOnly, 2);
  EXPECT_TRUE(prefix.exhausted);
  EXPECT_EQ(prefix.visits, 3u);
  EXPECT_EQ(prefix.rows, 0u);
  // Budget ends inside the skipped delta suffix of an old scan: every old
  // atom was found first.
  Run suffix = run(MatchRange::kOldOnly, 6);
  EXPECT_TRUE(suffix.exhausted);
  EXPECT_EQ(suffix.visits, 7u);
  EXPECT_EQ(suffix.rows, 4u);
  // Budget ends inside the scanned span.
  Run span = run(MatchRange::kDeltaOnly, 6);
  EXPECT_TRUE(span.exhausted);
  EXPECT_EQ(span.visits, 7u);
  EXPECT_EQ(span.rows, 2u);
}

TEST(QueryTest, AnswersAndCertainAnswers) {
  ParsedProgram program = MustParse("e(a,b).\n");
  Instance instance = MakeInstance(program.facts);
  // Add a null edge: e(b, _:n0).
  Term b = Term::Constant(*program.vocabulary.constants.Find("b"));
  instance.Insert(Atom(0, {b, Term::Null(0)}));

  StatusOr<ParsedQuery> parsed = ParseQuery("e(X,Y)", &program.vocabulary);
  ASSERT_TRUE(parsed.ok());
  ConjunctiveQuery query;
  query.atoms = parsed->atoms;
  query.num_variables = 2;
  query.answer_variables = {1};
  EXPECT_EQ(EvaluateQuery(instance, query).size(), 2u);
  std::set<AnswerTuple> certain = CertainAnswers(instance, query);
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ((*certain.begin())[0], b);
  EXPECT_TRUE(EntailsBooleanQuery(instance, query));
}

TEST(QueryTest, SubstituteAtomAppliesBinding) {
  Atom pattern(3, {Term::Variable(0), Term::Constant(7), Term::Variable(1)});
  Binding binding{Term::Constant(1), Term::Null(2)};
  Atom image = SubstituteAtom(pattern, binding);
  EXPECT_EQ(image.args[0], Term::Constant(1));
  EXPECT_EQ(image.args[1], Term::Constant(7));
  EXPECT_EQ(image.args[2], Term::Null(2));
}

}  // namespace
}  // namespace gchase
