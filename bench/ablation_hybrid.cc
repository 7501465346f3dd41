// Ablation: the paper's future-work question (§7) — is there a good
// multi-purpose heuristic measuring both structure and content? Compares
// h1 (structure), cosine (content), and their max/sum hybrids across all
// three workload families under RBFS.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/mapping_problem.h"
#include "fira/builtin_functions.h"
#include "heuristics/composite.h"
#include "heuristics/heuristic_factory.h"
#include "heuristics/set_based.h"
#include "heuristics/vector_heuristics.h"
#include "search/rbfs.h"
#include "workloads/bamm.h"
#include "workloads/flights.h"
#include "workloads/semantic.h"
#include "workloads/synthetic.h"

namespace {

using namespace tupelo;

std::unique_ptr<Heuristic> MakeNamed(const std::string& which,
                                     const Database& target) {
  double k = DefaultScale(HeuristicKind::kCosine, SearchAlgorithm::kRbfs);
  if (which == "h1") return std::make_unique<H1Heuristic>(target);
  if (which == "cosine") return std::make_unique<CosineHeuristic>(target, k);
  if (which == "jaccard") {
    return std::make_unique<JaccardHeuristic>(target, k);
  }
  if (which == "pairs") return std::make_unique<ColumnPairsHeuristic>(target);
  if (which == "max") return MakeHybridHeuristic(target, k);
  if (which == "sum") {
    std::vector<WeightedSumHeuristic::Term> terms;
    terms.push_back({0.5, std::make_unique<H1Heuristic>(target)});
    terms.push_back({0.5, std::make_unique<CosineHeuristic>(target, k)});
    return std::make_unique<WeightedSumHeuristic>(std::move(terms));
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tupelo::bench;

  BenchArgs args = ParseBenchArgs(argc, argv, 50000);
  std::printf("# Ablation: hybrid structure+content heuristics (§7)\n");
  std::printf("# states examined, RBFS; budget=%llu\n\n",
              static_cast<unsigned long long>(args.budget));

  FunctionRegistry registry;
  if (!RegisterBuiltinFunctions(&registry).ok()) return 1;

  struct Task {
    std::string name;
    Database source;
    Database target;
    std::vector<SemanticCorrespondence> corrs;
  };
  std::vector<Task> tasks;
  for (size_t n : {4u, 8u}) {
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(n);
    tasks.push_back({"synthetic_n" + std::to_string(n), pair.source,
                     pair.target, {}});
  }
  tasks.push_back(
      {"flights_B_to_A", MakeFlightsB(), MakeFlightsA(), {}});
  tasks.push_back({"flights_B_to_C", MakeFlightsB(), MakeFlightsC(),
                   FlightsBToCCorrespondences()});
  BammWorkload books = MakeBammWorkload(BammDomain::kBooks, args.seed);
  for (size_t i = 0; i < 3 && i < books.targets.size(); ++i) {
    tasks.push_back({"bamm_books_" + std::to_string(i), books.source,
                     books.targets[i], {}});
  }
  SemanticWorkload inv = MakeSemanticWorkload(SemanticDomain::kInventory, 4);
  tasks.push_back({"inventory_4fn", inv.source, inv.target,
                   inv.correspondences});

  std::vector<std::string> variants = {"h1", "cosine", "jaccard", "pairs", "max", "sum"};
  std::vector<std::string> header = {"task"};
  for (const std::string& v : variants) header.push_back(v);
  PrintRow(header, 16);

  BenchReport report("ablation_hybrid", args);
  BenchTrace trace(args);
  report.BeginPanel("hybrids");

  for (const Task& task : tasks) {
    std::vector<std::string> row = {task.name};
    for (const std::string& which : variants) {
      MappingProblem problem(task.source, task.target,
                             MakeNamed(which, task.target), &registry,
                             task.corrs);
      obs::MetricRegistry reg;
      obs::MetricRegistry* metrics = report.enabled() ? &reg : nullptr;
      problem.set_metrics(metrics);
      problem.set_trace(trace.session());
      SearchLimits limits;
      limits.max_states = args.budget;
      limits.max_depth = 16;
      auto start = std::chrono::steady_clock::now();
      SearchOutcome<Op> outcome =
          RbfsSearch(problem, limits, metrics, nullptr, trace.session());
      RunResult r;
      r.found = outcome.found;
      r.cutoff = outcome.budget_exhausted;
      r.states = outcome.stats.states_examined;
      r.states_generated = outcome.stats.states_generated;
      r.iterations = outcome.stats.iterations;
      r.peak_memory_nodes = outcome.stats.peak_memory_nodes;
      r.depth = outcome.stats.solution_cost;
      r.millis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      if (report.enabled()) {
        obs::JsonValue run = BenchReport::MakeRun(r);
        run["task"] = task.name;
        run["variant"] = which;
        run["metrics"] = reg.ToJson();
        trace.AnnotateRun(run);
        report.AddRun(std::move(run));
      }
      row.push_back(FormatStates(r, args.budget));
    }
    PrintRow(row, 16);
  }
  report.Write();
  trace.Write();
  return 0;
}
