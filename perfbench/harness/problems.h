// Discovery problem sets for the search workloads (synth_wide,
// deepweb_batch) and the serve job mix. Every set is a pure function of
// the seed.
#ifndef PERFBENCH_HARNESS_PROBLEMS_H_
#define PERFBENCH_HARNESS_PROBLEMS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tupelo.h"
#include "fira/function_registry.h"
#include "relational/database.h"
#include "workloads/bamm.h"

namespace perfbench {

struct Problem {
  std::string id;
  std::shared_ptr<const tupelo::Database> source;
  std::shared_ptr<const tupelo::Database> target;
  const tupelo::FunctionRegistry* registry = nullptr;  // null without λ
  std::vector<tupelo::SemanticCorrespondence> correspondences;
  tupelo::SearchAlgorithm algorithm = tupelo::SearchAlgorithm::kIda;
  tupelo::HeuristicKind heuristic = tupelo::HeuristicKind::kH1;
  int max_depth = 12;
  uint64_t max_states = 50000;
  // BAMM targets only: which source attribute each target label renames.
  std::shared_ptr<const tupelo::BammGroundTruth> truth;

  tupelo::TupeloOptions Options() const;
};

// Owns the generated databases and registries the problems point into.
struct ProblemSet {
  std::vector<Problem> problems;
  std::vector<std::unique_ptr<tupelo::FunctionRegistry>> registries;
};

// Experiment 1 (Fig. 5/6): n-attribute matching, IDA* and RBFS, h1/h3 at
// n = 8..32 and the vector/string heuristics at n = 5..7. The seed picks
// the tuple's cell values and the run order.
ProblemSet MakeSynthWide(uint64_t seed);

// Every BAMM target of the four domains, the Inventory/Real-Estate λ
// problems and scaled Fig. 1 restructurings under IDA*/RBFS with h1,
// euclid_norm, cosine and levenshtein, plus one pass of the BAMM targets
// under A*, greedy and beam. The seed drives the BAMM generator and the
// run order.
ProblemSet MakeDeepwebBatch(uint64_t seed);

// Independent correctness check of one discovered mapping: replays it on
// the source, checks containment of the target and, for BAMM targets,
// the ground-truth renames. Empty string = correct, else the cause.
std::string CheckMapping(const Problem& problem,
                         const tupelo::MappingExpression& mapping);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBLEMS_H_
