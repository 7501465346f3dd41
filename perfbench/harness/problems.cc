#include "harness/problems.h"

#include <algorithm>
#include <random>
#include <set>
#include <utility>

#include "fira/builtin_functions.h"
#include "heuristics/heuristic_factory.h"
#include "workloads/restructuring.h"
#include "workloads/semantic.h"

namespace perfbench {
namespace {

using tupelo::Database;
using tupelo::HeuristicKind;
using tupelo::SearchAlgorithm;

std::string Padded(size_t i, size_t width) {
  std::string digits = std::to_string(i);
  while (digits.size() < width) digits.insert(digits.begin(), '0');
  return digits;
}

// The Experiment 1 pair R(A1..An) -> R(B1..Bn) sharing one tuple, as
// workloads/synthetic.cc builds it, with seeded cell values in place of
// the fixed "a1".."an" so that the seed changes the inputs.
std::pair<Database, Database> SynthPair(size_t n, std::mt19937_64& rng) {
  const size_t width = std::to_string(n).size();
  std::set<std::string> used;
  std::vector<std::string> row;
  while (row.size() < n) {
    std::string v = "v";
    for (int i = 0; i < 5; ++i) v.push_back(static_cast<char>('a' + rng() % 26));
    if (used.insert(v).second) row.push_back(v);
  }
  auto side = [&](const char* prefix) {
    std::vector<std::string> attrs;
    for (size_t i = 1; i <= n; ++i) attrs.push_back(prefix + Padded(i, width));
    tupelo::Relation rel =
        tupelo::Relation::Create("R", std::move(attrs)).value();
    (void)rel.AddRow(row);
    Database db;
    (void)db.AddRelation(std::move(rel));
    return db;
  };
  return {side("A"), side("B")};
}

Problem MakeProblem(std::string id, const std::shared_ptr<const Database>& s,
                    const std::shared_ptr<const Database>& t,
                    SearchAlgorithm algo, HeuristicKind kind, int max_depth,
                    uint64_t max_states) {
  Problem p;
  p.id = std::move(id);
  p.source = s;
  p.target = t;
  p.algorithm = algo;
  p.heuristic = kind;
  p.max_depth = max_depth;
  p.max_states = max_states;
  return p;
}

std::string Name(SearchAlgorithm a) {
  return std::string(tupelo::SearchAlgorithmName(a));
}
std::string Name(HeuristicKind k) {
  return std::string(tupelo::HeuristicKindName(k));
}

void Shuffle(ProblemSet* set, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::shuffle(set->problems.begin(), set->problems.end(), rng);
}

}  // namespace

tupelo::TupeloOptions Problem::Options() const {
  tupelo::TupeloOptions options;
  options.algorithm = algorithm;
  options.heuristic = heuristic;
  options.limits.max_states = max_states;
  options.limits.max_depth = max_depth;
  options.threads = 1;
  return options;
}

ProblemSet MakeSynthWide(uint64_t seed) {
  ProblemSet set;
  std::mt19937_64 rng(seed);
  const SearchAlgorithm algos[] = {SearchAlgorithm::kIda,
                                   SearchAlgorithm::kRbfs};
  for (size_t n = 8; n <= 32; ++n) {
    auto [s, t] = SynthPair(n, rng);
    auto src = std::make_shared<const Database>(std::move(s));
    auto tgt = std::make_shared<const Database>(std::move(t));
    for (SearchAlgorithm algo : algos) {
      for (HeuristicKind kind : {HeuristicKind::kH1, HeuristicKind::kH3}) {
        set.problems.push_back(MakeProblem(
            "synth/" + Name(algo) + "/" + Name(kind) + "/n" +
                std::to_string(n),
            src, tgt, algo, kind, static_cast<int>(n) + 4, 100000));
      }
    }
  }
  for (size_t n = 5; n <= 7; ++n) {
    auto [s, t] = SynthPair(n, rng);
    auto src = std::make_shared<const Database>(std::move(s));
    auto tgt = std::make_shared<const Database>(std::move(t));
    for (SearchAlgorithm algo : algos) {
      for (HeuristicKind kind :
           {HeuristicKind::kEuclidean, HeuristicKind::kEuclideanNorm,
            HeuristicKind::kCosine, HeuristicKind::kLevenshtein}) {
        set.problems.push_back(MakeProblem(
            "synth/" + Name(algo) + "/" + Name(kind) + "/n" +
                std::to_string(n),
            src, tgt, algo, kind, static_cast<int>(n) + 4, 10000));
      }
    }
  }
  Shuffle(&set, seed);
  return set;
}

ProblemSet MakeDeepwebBatch(uint64_t seed) {
  ProblemSet set;
  const SearchAlgorithm complete[] = {SearchAlgorithm::kIda,
                                      SearchAlgorithm::kRbfs};
  const HeuristicKind kinds[] = {HeuristicKind::kH1,
                                 HeuristicKind::kEuclideanNorm,
                                 HeuristicKind::kCosine,
                                 HeuristicKind::kLevenshtein};

  // Experiment 2: every generated BAMM target. The budgets keep a target
  // h1 cannot solve (how many there are depends on the seed) from costing
  // more than the seed-independent λ and restructuring calls below.
  for (tupelo::BammDomain domain : tupelo::AllBammDomains()) {
    tupelo::BammWorkload w = tupelo::MakeBammWorkload(domain, seed);
    auto src = std::make_shared<const Database>(std::move(w.source));
    const std::string dname(tupelo::BammDomainName(domain));
    for (size_t i = 0; i < w.targets.size(); ++i) {
      auto tgt = std::make_shared<const Database>(std::move(w.targets[i]));
      auto truth = std::make_shared<const tupelo::BammGroundTruth>(
          std::move(w.ground_truth[i]));
      auto add = [&](SearchAlgorithm algo, HeuristicKind kind,
                     uint64_t budget) {
        Problem p = MakeProblem("bamm/" + dname + "/" + std::to_string(i) +
                                    "/" + Name(algo) + "/" + Name(kind),
                                src, tgt, algo, kind, 12, budget);
        p.truth = truth;
        set.problems.push_back(std::move(p));
      };
      for (SearchAlgorithm algo : complete) {
        for (HeuristicKind kind : kinds) add(algo, kind, 1000);
      }
      // The extra pass that puts every algorithm of src/search on the
      // measured path (beam runs single-threaded, as Discover does with
      // threads = 1), on a smaller budget: greedy wanders far on h1.
      for (SearchAlgorithm algo :
           {SearchAlgorithm::kAStar, SearchAlgorithm::kGreedy,
            SearchAlgorithm::kBeam}) {
        add(algo, HeuristicKind::kH1, 300);
      }
    }
  }

  // Experiment 3: the λ problems of Fig. 9.
  for (tupelo::SemanticDomain domain :
       {tupelo::SemanticDomain::kInventory,
        tupelo::SemanticDomain::kRealEstate}) {
    for (size_t k = 1; k <= 4; ++k) {
      tupelo::SemanticWorkload w = tupelo::MakeSemanticWorkload(domain, k);
      set.registries.push_back(
          std::make_unique<tupelo::FunctionRegistry>(std::move(w.registry)));
      auto src = std::make_shared<const Database>(std::move(w.source));
      auto tgt = std::make_shared<const Database>(std::move(w.target));
      for (SearchAlgorithm algo : complete) {
        // Levenshtein is left out here: on λ states it costs about half a
        // millisecond per state, seconds per call.
        for (HeuristicKind kind : {HeuristicKind::kH1,
                                   HeuristicKind::kEuclideanNorm,
                                   HeuristicKind::kCosine}) {
          Problem p = MakeProblem(
              "semantic/" + std::string(tupelo::SemanticDomainName(domain)) +
                  "/" + std::to_string(k) + "/" + Name(algo) + "/" +
                  Name(kind),
              src, tgt, algo, kind, static_cast<int>(k) + 6, 5000);
          p.registry = set.registries.back().get();
          p.correspondences = w.correspondences;
          set.problems.push_back(std::move(p));
        }
      }
    }
  }

  // Fig. 1 restructurings, scaled.
  auto builtins = std::make_unique<tupelo::FunctionRegistry>();
  (void)tupelo::RegisterBuiltinFunctions(builtins.get());
  const tupelo::FunctionRegistry* builtin_registry = builtins.get();
  set.registries.push_back(std::move(builtins));
  const std::pair<size_t, size_t> shapes[] = {{2, 2}, {2, 3}, {3, 3}};
  for (auto [carriers, routes] : shapes) {
    tupelo::RestructuringWorkload w =
        tupelo::MakeRestructuringWorkload(carriers, routes);
    auto flat = std::make_shared<const Database>(w.flat);
    auto wide = std::make_shared<const Database>(w.wide);
    auto split = std::make_shared<const Database>(w.split);
    const std::string shape =
        std::to_string(carriers) + "x" + std::to_string(routes);
    struct Direction {
      const char* name;
      std::shared_ptr<const Database> from, to;
      bool lambda;
    };
    const Direction dirs[] = {{"flat-wide", flat, wide, false},
                              {"wide-flat", wide, flat, false},
                              {"flat-split", flat, split, true}};
    for (const Direction& d : dirs) {
      for (SearchAlgorithm algo : complete) {
        for (HeuristicKind kind : kinds) {
          Problem p = MakeProblem("restructure/" + std::string(d.name) + "/" +
                                      shape + "/" + Name(algo) + "/" +
                                      Name(kind),
                                  d.from, d.to, algo, kind,
                                  static_cast<int>(carriers + routes) + 8,
                                  2000);
          if (d.lambda) {
            p.registry = builtin_registry;
            p.correspondences = w.flat_to_split;
          }
          set.problems.push_back(std::move(p));
        }
      }
    }
  }
  Shuffle(&set, seed);
  return set;
}

std::string CheckMapping(const Problem& problem,
                         const tupelo::MappingExpression& mapping) {
  tupelo::Result<Database> out = mapping.Apply(*problem.source,
                                               problem.registry);
  if (!out.ok()) return "replay failed: " + out.status().ToString();
  if (!out->Contains(*problem.target)) {
    return "replayed mapping does not contain the target";
  }
  if (problem.truth == nullptr) return "";
  // Ground truth: every renamed target label must carry the values of the
  // source attribute it renames. The source and every target hold one
  // relation each.
  const tupelo::Relation& src_rel = *problem.source->relations().begin()->second;
  const tupelo::Relation& tgt_rel = *problem.target->relations().begin()->second;
  tupelo::Result<const tupelo::Relation*> got =
      out->GetRelation(tgt_rel.name());
  if (!got.ok()) return "mapped instance lacks relation " + tgt_rel.name();
  for (const auto& [from, to] : problem.truth->attribute_renames) {
    std::optional<size_t> si = src_rel.AttributeIndex(from);
    std::optional<size_t> oi = (*got)->AttributeIndex(to);
    if (!si || !oi) return "ground truth names a missing attribute " + from;
    std::multiset<std::string> want, have;
    for (const tupelo::Tuple& t : src_rel.tuples()) want.insert(t[*si].ToString());
    for (const tupelo::Tuple& t : (*got)->tuples()) have.insert(t[*oi].ToString());
    if (want != have) {
      return "match differs from ground truth: " + from + " -> " + to;
    }
  }
  return "";
}

}  // namespace perfbench
