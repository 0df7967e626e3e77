// Seeded input generation and the shared helpers declared in bench.h.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

std::vector<Metric> MedianOverPasses(
    const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> report = passes.back();
  for (std::size_t m = 0; m < report.size(); ++m) {
    if (report[m].unit != "s" && report[m].unit != "1/s") continue;
    std::vector<double> values;
    for (const std::vector<Metric>& pass : passes) values.push_back(pass[m].value);
    report[m].value = Median(values);
  }
  return report;
}

HostSpeed::HostSpeed(const ReferenceWork& work)
    : work_(work), values_(1u << 16), cycle_(work.walk_bytes / sizeof(uint32_t)) {
  // Sattolo's shuffle: one cycle through every entry.
  for (uint32_t i = 0; i < cycle_.size(); ++i) cycle_[i] = i;
  SeededRng rng(7);
  for (uint32_t i = cycle_.size(); i > 1; --i) {
    std::swap(cycle_[i - 1], cycle_[rng.Below(i - 1)]);
  }
}

void HostSpeed::Measure() {
  const Stopwatch clock;
  SeededRng rng(42);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < (1u << 22); ++i) sum += rng.Next() >> 60;
  for (uint64_t& value : values_) value = rng.Next();
  std::sort(values_.begin(), values_.end());
  uint32_t at = 0;
  if (!cycle_.empty()) {
    for (uint32_t i = 0; i < (1u << 18); ++i) at = cycle_[at];
  }
  measured_s_.push_back(clock.Seconds());
  // Keeps the results observable, so the compiler cannot drop the work.
  if (sum + at + values_[0] == 0) std::printf("#\n");
}

double HostSpeed::Scale() const {
  const std::size_t n = measured_s_.size();
  const double around =
      n >= 2 ? (measured_s_[n - 2] + measured_s_[n - 1]) / 2 : measured_s_.back();
  return work_.seconds / around;
}

std::string HostSpeed::Describe() const {
  char text[160];
  std::snprintf(text, sizeof(text),
                "reference (arithmetic, sort, %u KiB walk): median %.3f ms, "
                "scaled to %.3f ms",
                work_.walk_bytes >> 10, Median(measured_s_) * 1e3,
                work_.seconds * 1e3);
  return text;
}

void ScaleTimes(std::vector<Metric>* metrics, double scale) {
  for (Metric& metric : *metrics) {
    if (metric.unit == "s") metric.value *= scale;
    if (metric.unit == "1/s") metric.value /= scale;
  }
}

void FailureLog::Fail(const std::string& what) {
  current_failed_ = true;
  if (messages_.size() < 8) messages_.push_back(what);
}

void FailureLog::EndOperation() {
  if (current_failed_) ++failed_operations_;
  current_failed_ = false;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<std::string> NodeNames(uint64_t seed, uint64_t family,
                                   const std::string& prefix, uint64_t count) {
  // A seeded shuffle of 0..count-1, so names are distinct and a different
  // seed relabels every node.
  std::vector<uint64_t> ids(count);
  for (uint64_t i = 0; i < count; ++i) ids[i] = i;
  SeededRng rng = StreamFor(seed, family);
  for (uint64_t i = count; i > 1; --i) std::swap(ids[i - 1], ids[rng.Below(i)]);
  const uint64_t salt = rng.Next() & 0xfff;
  std::vector<std::string> names(count);
  char buffer[40];
  for (uint64_t i = 0; i < count; ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%03llx_%llx", prefix.c_str(),
                  static_cast<unsigned long long>(salt),
                  static_cast<unsigned long long>(ids[i]));
    names[i] = buffer;
  }
  return names;
}

std::vector<CuratedSet> LoadCuratedSets(const std::string& path) {
  // Format: "@ <name> <T|N> <T|N>" opens a set (oblivious, semi-oblivious
  // ground truth); the following lines up to the next '@' are its rules.
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<CuratedSet> sets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    if (line[0] == '@') {
      std::istringstream header(line.substr(1));
      CuratedSet set;
      std::string o, so;
      header >> set.name >> o >> so;
      set.oblivious_terminates = o == "T";
      set.semi_oblivious_terminates = so == "T";
      sets.push_back(std::move(set));
    } else if (!sets.empty()) {
      sets.back().program += line + "\n";
    }
  }
  return sets;
}

namespace {

constexpr uint32_t kPredicates = 16;
constexpr uint32_t kRules = 24;

struct RandomSchema {
  std::vector<uint32_t> arity;
  std::vector<uint32_t> wide;  ///< Predicates of arity >= 2 (guards).
  std::vector<uint32_t> name;  ///< Predicate i is written p<name[i]>.
};

std::string AtomText(const RandomSchema& schema, uint32_t predicate,
                     const std::vector<std::string>& args) {
  std::string text = "p" + std::to_string(schema.name[predicate]) + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) text += ",";
    text += args[i];
  }
  return text + ")";
}

/// Body variables for one atom of `arity`: fresh, or (with probability
/// `repeat`) a repeat of an earlier variable of the same atom.
std::vector<std::string> BodyVars(SeededRng* rng, uint32_t arity, double repeat,
                                  uint32_t* next_var) {
  std::vector<std::string> vars;
  for (uint32_t i = 0; i < arity; ++i) {
    if (!vars.empty() && rng->Chance(repeat)) {
      vars.push_back(vars[rng->Below(vars.size())]);
    } else {
      vars.push_back("X" + std::to_string((*next_var)++));
    }
  }
  return vars;
}

/// One or two head atoms over the body's variables and up to two
/// existential variables.
std::string HeadText(SeededRng* rng, const RandomSchema& schema,
                     const std::vector<std::string>& body_vars) {
  const uint32_t atoms = rng->Chance(0.4) ? 2 : 1;
  std::string text;
  for (uint32_t a = 0; a < atoms; ++a) {
    const uint32_t predicate = static_cast<uint32_t>(rng->Below(kPredicates));
    std::vector<std::string> args;
    for (uint32_t i = 0; i < schema.arity[predicate]; ++i) {
      if (rng->Chance(0.6)) {
        args.push_back(body_vars[rng->Below(body_vars.size())]);
      } else {
        args.push_back("Y" + std::to_string(rng->Below(2)));
      }
    }
    if (a > 0) text += ", ";
    text += AtomText(schema, predicate, args);
  }
  return text;
}

std::string RuleText(SeededRng* rng, const RandomSchema& schema,
                     const std::string& rule_class) {
  uint32_t next_var = 0;
  std::string body;
  std::vector<std::string> vars;
  if (rule_class == "G") {
    const uint32_t guard = schema.wide[rng->Below(schema.wide.size())];
    vars = BodyVars(rng, schema.arity[guard], 0.25, &next_var);
    body = AtomText(schema, guard, vars);
    const uint32_t sides = rng->Chance(0.7) ? 1 + rng->Below(2) : 0;
    for (uint32_t s = 0; s < sides; ++s) {
      const uint32_t side = static_cast<uint32_t>(rng->Below(kPredicates));
      std::vector<std::string> args;
      for (uint32_t i = 0; i < schema.arity[side]; ++i) {
        args.push_back(vars[rng->Below(vars.size())]);
      }
      body += ", " + AtomText(schema, side, args);
    }
  } else {
    const uint32_t predicate = static_cast<uint32_t>(rng->Below(kPredicates));
    vars = BodyVars(rng, schema.arity[predicate], rule_class == "L" ? 0.25 : 0.0,
                    &next_var);
    body = AtomText(schema, predicate, vars);
  }
  return body + " -> " + HeadText(rng, schema, vars) + ".\n";
}

}  // namespace

std::vector<RandomSetText> RandomRuleSets(uint64_t seed, uint32_t count) {
  // The rule structure of set n comes from a fixed stream; the seed renames
  // the predicates and reorders the rules and the sets. So every seed gives
  // different rule text with the same mix of cheap and capped sets: when
  // the structure was drawn from the seed too, the few guarded sets that
  // run into the decider's caps made the corpus time swing by half from
  // one seed to the next.
  static const char* const kClasses[] = {"SL", "L", "G"};
  constexpr uint64_t kStructureSeed = 2015;
  std::vector<RandomSetText> sets;
  sets.reserve(count);
  for (uint32_t n = 0; n < count; ++n) {
    SeededRng structure = StreamFor(kStructureSeed, 1000 + n);
    SeededRng naming = StreamFor(seed, 1000 + n);
    RandomSchema schema;
    for (uint32_t p = 0; p < kPredicates; ++p) {
      schema.arity.push_back(1 + static_cast<uint32_t>(structure.Below(3)));
      if (schema.arity.back() >= 2) schema.wide.push_back(p);
      schema.name.push_back(p);
    }
    if (schema.wide.empty()) {
      schema.arity[0] = 2;
      schema.wide.push_back(0);
    }
    for (uint32_t p = kPredicates; p > 1; --p) {
      std::swap(schema.name[p - 1], schema.name[naming.Below(p)]);
    }
    RandomSetText set;
    set.index = n;
    set.requested_class = kClasses[n % 3];
    std::vector<std::string> rules;
    for (uint32_t r = 0; r < kRules; ++r) {
      rules.push_back(RuleText(&structure, schema, set.requested_class));
    }
    for (std::size_t r = rules.size(); r > 1; --r) {
      std::swap(rules[r - 1], rules[naming.Below(r)]);
    }
    for (const std::string& rule : rules) set.program += rule;
    sets.push_back(std::move(set));
  }
  SeededRng order = StreamFor(seed, 999);
  for (std::size_t n = sets.size(); n > 1; --n) {
    std::swap(sets[n - 1], sets[order.Below(n)]);
  }
  return sets;
}

std::string LtreeProgram(uint32_t depth) {
  std::string text;
  for (uint32_t i = 0; i < depth; ++i) {
    const std::string level = "n" + std::to_string(i);
    const std::string next = "n" + std::to_string(i + 1);
    text += level + "(X,X) -> c(X,Y), c(X,Z), " + next + "(Y,Y), " + next +
            "(Z,Z).\n";
  }
  return text;
}

}  // namespace perfbench
