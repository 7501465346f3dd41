// synth_wide and deepweb_batch: timed Discover calls (untraced run), and
// the traced run that drives the same search templates through
// TracedProblem and prices the layers below Expand by replay.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mapping_problem.h"
#include "core/tupelo.h"
#include "harness/common.h"
#include "harness/problems.h"
#include "harness/traced_problem.h"
#include "fira/executor.h"
#include "heuristics/heuristic_factory.h"
#include "obs/metrics.h"
#include "relational/io.h"
#include "search/a_star.h"
#include "search/greedy.h"
#include "search/ida_star.h"
#include "search/parallel_beam.h"
#include "search/rbfs.h"

namespace perfbench {
namespace {

using tupelo::Database;
namespace obs = tupelo::obs;
using obs::JsonValue;

// Keeps replayed results observable so the timed loops are not elided.
volatile uint64_t g_sink = 0;

// The algorithm dispatch of core/tupelo.cc's RunRung, over any problem.
template <typename P>
tupelo::SearchOutcome<tupelo::Op> RunAlgorithm(
    tupelo::SearchAlgorithm algo, const P& problem, size_t beam_width,
    const tupelo::SearchLimits& limits) {
  switch (algo) {
    case tupelo::SearchAlgorithm::kIda:
      return tupelo::IdaStarSearch(problem, limits);
    case tupelo::SearchAlgorithm::kRbfs:
      return tupelo::RbfsSearch(problem, limits);
    case tupelo::SearchAlgorithm::kAStar:
      return tupelo::AStarSearch(problem, limits);
    case tupelo::SearchAlgorithm::kGreedy:
      return tupelo::GreedySearch(problem, limits);
    case tupelo::SearchAlgorithm::kBeam:
      return tupelo::ParallelBeamSearch(problem, beam_width, nullptr, limits);
  }
  return {};
}

// The paper's count for one call: a budget cutoff counts as the budget.
uint64_t CountedStates(const Problem& p, const tupelo::TupeloResult& r) {
  return r.budget_exhausted ? p.max_states : r.stats.states_examined;
}

struct Prepared {
  ProblemSet set;
  std::vector<std::unique_ptr<tupelo::Tupelo>> systems;
};

// Set-up as a user of the library pays it: generate the instances, write
// each one as .tdb text and load it back, then build the Tupelo objects.
Prepared Prepare(const RunArgs& args) {
  Prepared out;
  out.set = args.workload == "synth_wide" ? MakeSynthWide(args.seed)
                                          : MakeDeepwebBatch(args.seed);
  std::map<const Database*, std::shared_ptr<const Database>> loaded;
  auto load = [&](std::shared_ptr<const Database>& db) {
    auto [it, fresh] = loaded.try_emplace(db.get());
    if (fresh) {
      it->second = std::make_shared<const Database>(
          tupelo::ParseTdb(tupelo::WriteTdb(*db)).value());
    }
    db = it->second;
  };
  for (Problem& p : out.set.problems) {
    load(p.source);
    load(p.target);
  }
  for (const Problem& p : out.set.problems) {
    auto system = std::make_unique<tupelo::Tupelo>(*p.source, *p.target);
    system->set_registry(p.registry);
    for (const auto& c : p.correspondences) system->AddCorrespondence(c);
    out.systems.push_back(std::move(system));
  }
  return out;
}

// Checks one Discover result; returns the failure cause or "".
std::string CheckResult(const Problem& p,
                        const tupelo::Result<tupelo::TupeloResult>& r) {
  if (!r.ok()) return "discover error: " + r.status().ToString();
  if (!r->found) return "";  // budget cutoff or exhausted: not a failure
  if (!r->verified) return "unverified: " + r->verify_status.ToString();
  return CheckMapping(p, r->mapping);
}

// --- traced run -----------------------------------------------------------

// Sums over the traced problems; run.py turns them into the per-layer
// metrics (see perfbench/README.md for the table).
struct LayerSums {
  uint64_t problems = 0;
  uint64_t ref_discover_ns = 0;  // untraced Discover calls
  uint64_t discover_ns = 0;      // traced emulation of the same calls
  uint64_t search_ns = 0;
  uint64_t verify_ns = 0;
  uint64_t verifies = 0;
  uint64_t states = 0;
  AdapterTotals adapter;
  // Replay on sampled states.
  uint64_t sampled = 0;
  uint64_t candidates_ns = 0;
  uint64_t expand_uncached_ns = 0;
  uint64_t apply_ns = 0;
  uint64_t apply_ops = 0;
  uint64_t apply_fails = 0;
  uint64_t fingerprint_ns = 0;
  uint64_t fingerprints = 0;
  uint64_t kept = 0;
  uint64_t key_ns = 0;
  uint64_t keys = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> heuristic;  // ns, n
  // Program counters from a metrics-on Discover of the same problem.
  uint64_t expand_hits = 0;
  uint64_t expand_misses = 0;
  uint64_t estimate_hits = 0;
  uint64_t estimate_evals = 0;
};

void Replay(const Problem& p, const std::vector<Database>& samples,
            LayerSums* sums) {
  tupelo::SuccessorConfig uncached;
  uncached.expand_cache_capacity = 0;
  tupelo::MappingProblem cold(
      *p.source, *p.target,
      tupelo::MakeHeuristic(p.heuristic, *p.target, p.algorithm),
      p.registry, p.correspondences, uncached);
  std::unique_ptr<tupelo::Heuristic> heuristic =
      tupelo::MakeHeuristic(p.heuristic, *p.target, p.algorithm);
  auto& h = sums->heuristic[std::string(tupelo::HeuristicKindName(p.heuristic))];
  for (const Database& s : samples) {
    (void)cold.CandidateOps(s);  // untimed warm-up of allocator and caches
    Clock::time_point t0 = Clock::now();
    std::vector<tupelo::Op> ops = cold.CandidateOps(s);
    Clock::time_point t1 = Clock::now();
    std::vector<tupelo::MappingProblem::SuccessorT> succ = cold.Expand(s);
    Clock::time_point t2 = Clock::now();
    std::vector<Database> applied;
    applied.reserve(ops.size());
    for (const tupelo::Op& op : ops) {
      tupelo::Result<Database> next = tupelo::ApplyOp(op, s, p.registry);
      if (next.ok()) {
        applied.push_back(std::move(next).value());
      } else {
        ++sums->apply_fails;
      }
    }
    Clock::time_point t3 = Clock::now();
    uint64_t fold = 0;
    for (const Database& d : applied) fold ^= d.Fingerprint128().lo;
    Clock::time_point t4 = Clock::now();
    for (const auto& x : succ) fold ^= cold.StateKey128(x.state).hi;
    Clock::time_point t5 = Clock::now();
    int hsum = 0;
    for (const auto& x : succ) hsum += heuristic->Estimate(x.state);
    Clock::time_point t6 = Clock::now();
    g_sink = g_sink + fold + static_cast<uint64_t>(hsum);

    sums->sampled += 1;
    sums->candidates_ns += NanosBetween(t0, t1);
    sums->expand_uncached_ns += NanosBetween(t1, t2);
    sums->apply_ns += NanosBetween(t2, t3);
    sums->apply_ops += ops.size();
    sums->fingerprint_ns += NanosBetween(t3, t4);
    sums->fingerprints += applied.size();
    sums->kept += succ.size();
    sums->key_ns += NanosBetween(t4, t5);
    sums->keys += succ.size();
    h.first += NanosBetween(t5, t6);
    h.second += succ.size();
  }
}

void CountCaches(const Problem& p, const tupelo::Tupelo& system,
                 LayerSums* sums) {
  obs::MetricRegistry registry;
  tupelo::TupeloOptions options = p.Options();
  options.metrics = &registry;
  if (!system.Discover(options).ok()) return;
  sums->expand_hits += registry.CounterValue("expand.cache_hits");
  sums->expand_misses += registry.CounterValue("expand.cache_misses");
  sums->estimate_hits += registry.CounterValue("heuristic.cache_hits");
  const std::string evals =
      "heuristic." +
      std::string(tupelo::MakeHeuristic(p.heuristic, *p.target, p.algorithm)
                      ->name()) +
      ".evals";
  sums->estimate_evals += registry.CounterValue(evals);
}

JsonValue SumsToJson(const LayerSums& s) {
  JsonValue j = JsonValue::Object();
  j["problems"] = s.problems;
  j["ref_discover_ns"] = s.ref_discover_ns;
  j["discover_ns"] = s.discover_ns;
  j["search_ns"] = s.search_ns;
  j["verify_ns"] = s.verify_ns;
  j["verifies"] = s.verifies;
  j["states"] = s.states;
  j["expand_ns"] = s.adapter.expand_ns;
  j["expand_calls"] = s.adapter.expand_calls;
  j["successors"] = s.adapter.successors;
  j["estimate_ns"] = s.adapter.estimate_ns;
  j["estimates"] = s.adapter.estimates;
  j["goal_ns"] = s.adapter.goal_ns;
  j["goal_calls"] = s.adapter.goal_calls;
  j["sampled"] = s.sampled;
  j["candidates_ns"] = s.candidates_ns;
  j["expand_uncached_ns"] = s.expand_uncached_ns;
  j["apply_ns"] = s.apply_ns;
  j["apply_ops"] = s.apply_ops;
  j["apply_fails"] = s.apply_fails;
  j["fingerprint_ns"] = s.fingerprint_ns;
  j["fingerprints"] = s.fingerprints;
  j["kept"] = s.kept;
  j["key_ns"] = s.key_ns;
  j["keys"] = s.keys;
  j["expand_hits"] = s.expand_hits;
  j["expand_misses"] = s.expand_misses;
  j["estimate_hits"] = s.estimate_hits;
  j["estimate_evals"] = s.estimate_evals;
  JsonValue h = JsonValue::Object();
  for (const auto& [kind, v] : s.heuristic) {
    JsonValue e = JsonValue::Object();
    e["ns"] = v.first;
    e["evals"] = v.second;
    h[kind] = std::move(e);
  }
  j["heuristic"] = std::move(h);
  return j;
}

// One traced problem: the untraced reference call, the traced emulation
// of Discover's single-rung path, the guard comparing the two, the
// replay and the cache counters. Returns the guard's failure cause.
std::string TraceOne(const Problem& p, const tupelo::Tupelo& system,
                     obs::TraceSession* session, LayerSums* sums) {
  const tupelo::TupeloOptions options = p.Options();
  Clock::time_point r0 = Clock::now();
  tupelo::Result<tupelo::TupeloResult> ref = system.Discover(options);
  Clock::time_point r1 = Clock::now();
  if (!ref.ok()) return "discover error: " + ref.status().ToString();

  // Emulated Discover: heuristic and problem construction, the rung's
  // search template over the adapter, then the verification replay.
  AdapterTotals totals;
  std::vector<Database> samples;
  const uint64_t every = std::max<uint64_t>(1, ref->stats.states_examined / 12);
  Clock::time_point t0 = Clock::now();
  tupelo::MappingProblem problem(
      *p.source, *p.target,
      tupelo::MakeHeuristic(p.heuristic, *p.target, p.algorithm,
                            options.scale_k),
      p.registry, p.correspondences, options.successors);
  TracedProblem traced(problem, session, &totals, &samples, every, 12);
  Clock::time_point s0 = Clock::now();
  tupelo::SearchOutcome<tupelo::Op> outcome;
  {
    obs::TraceSpan span(session, obs::TraceCategory::kDriver, "bench.search");
    outcome = RunAlgorithm(p.algorithm, traced, options.beam_width,
                           options.limits);
  }
  Clock::time_point s1 = Clock::now();
  bool verified = false;
  if (outcome.found) {
    obs::TraceSpan span(session, obs::TraceCategory::kVerify, "bench.verify");
    tupelo::MappingExpression mapping(outcome.path);
    tupelo::Result<Database> replay = mapping.Apply(*p.source, p.registry);
    verified = replay.ok() && replay->Contains(*p.target);
  }
  Clock::time_point t1 = Clock::now();

  sums->problems += 1;
  sums->ref_discover_ns += NanosBetween(r0, r1);
  sums->discover_ns += NanosBetween(t0, t1);
  sums->search_ns += NanosBetween(s0, s1);
  if (outcome.found) {
    sums->verify_ns += NanosBetween(s1, t1);
    sums->verifies += 1;
  }
  sums->states += outcome.stats.states_examined;
  sums->adapter.expand_ns += totals.expand_ns;
  sums->adapter.expand_calls += totals.expand_calls;
  sums->adapter.successors += totals.successors;
  sums->adapter.estimate_ns += totals.estimate_ns;
  sums->adapter.estimates += totals.estimates;
  sums->adapter.goal_ns += totals.goal_ns;
  sums->adapter.goal_calls += totals.goal_calls;

  Replay(p, samples, sums);
  CountCaches(p, system, sums);

  if (outcome.stats.states_examined != ref->stats.states_examined ||
      outcome.found != ref->found ||
      outcome.stats.solution_cost != ref->stats.solution_cost ||
      verified != ref->verified) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "traced search diverged: states %llu vs %llu, found %d vs "
                  "%d, depth %d vs %d",
                  static_cast<unsigned long long>(outcome.stats.states_examined),
                  static_cast<unsigned long long>(ref->stats.states_examined),
                  outcome.found ? 1 : 0, ref->found ? 1 : 0,
                  outcome.stats.solution_cost, ref->stats.solution_cost);
    return buf;
  }
  return "";
}

}  // namespace

int RunSearchWorkload(const RunArgs& args, RawResult* out) {
  // Set-up: generate the inputs and build the Tupelo objects, several
  // times; the last one is measured.
  JsonValue setup = JsonValue::Array();
  Prepared prep;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    prep = Prepare(args);
    setup.Append(MillisSince(t0) / 1e3);
  }
  out->doc["setup_s"] = std::move(setup);
  const std::vector<Problem>& problems = prep.set.problems;
  // Warm-up: lazy one-time initialisation (SIMD dispatch, registries).
  (void)prep.systems[0]->Discover(problems[0].Options());

  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  if (args.trace) {
    // Per-thread ring of 4 MiB; the export keeps the last events.
    obs::TraceSession session(4096);
    LayerSums sums;
    for (size_t i = 0; i < problems.size(); ++i) {
      if (i > 0 && Clock::now() >= deadline) break;
      ++out->attempted;
      std::string cause = TraceOne(problems[i], *prep.systems[i], &session,
                                   &sums);
      if (!cause.empty()) out->Fail(problems[i].id, cause);
    }
    out->doc["layers"] = SumsToJson(sums);
    session.WriteChromeJson(args.work_dir + "/" + args.workload +
                            ".trace.json");
    if (args.workload == "deepweb_batch") {
      // The same kinds of problems, served as jobs.
      JsonValue serve = JsonValue::Object();
      if (int rc = RunServeSegment(args, &serve, &out->attempted); rc != 0) {
        return rc;
      }
      out->doc["serve"] = std::move(serve);
    }
  } else {
    JsonValue records = JsonValue::Array();
    std::vector<JsonValue> walls(problems.size(), JsonValue::Array());
    std::vector<uint64_t> states(problems.size(), 0);
    std::vector<int> depth(problems.size(), -1);
    bool done = false;
    for (int pass = 0; !done; ++pass) {
      for (size_t i = 0; i < problems.size(); ++i) {
        if (pass > 0 && Clock::now() >= deadline) {
          done = true;
          break;
        }
        const Problem& p = problems[i];
        Clock::time_point t0 = Clock::now();
        tupelo::Result<tupelo::TupeloResult> r =
            prep.systems[i]->Discover(p.Options());
        const double ms = MillisSince(t0);
        ++out->attempted;
        walls[i].Append(ms);
        std::string cause = CheckResult(p, r);
        if (cause.empty() && r.ok()) {
          const uint64_t counted = CountedStates(p, *r);
          if (pass == 0) {
            states[i] = counted;
            depth[i] = r->stats.solution_cost;
          } else if (counted != states[i] ||
                     r->stats.solution_cost != depth[i]) {
            cause = "repeat call examined a different number of states";
          }
        }
        if (!cause.empty()) out->Fail(p.id, cause);
      }
      if (Clock::now() >= deadline) done = true;
    }
    for (size_t i = 0; i < problems.size(); ++i) {
      JsonValue rec = JsonValue::Object();
      rec["id"] = problems[i].id;
      rec["walls_ms"] = std::move(walls[i]);
      rec["states"] = states[i];
      rec["depth"] = static_cast<int64_t>(depth[i]);
      records.Append(std::move(rec));
    }
    out->doc["problems"] = std::move(records);
  }
  out->doc["measure_s"] = MillisSince(start) / 1e3;
  return 0;
}

int RunSelfTest() {
  // Adapter-driven searches must reproduce Discover exactly, on every
  // algorithm Discover can run, or the traced run's layer split would
  // describe a different search.
  ProblemSet set = MakeDeepwebBatch(2006);
  int mismatches = 0;
  int checked = 0;
  std::map<tupelo::SearchAlgorithm, int> per_algo;
  obs::TraceSession session(64);
  for (const Problem& p : set.problems) {
    if (per_algo[p.algorithm] >= 12) continue;
    ++per_algo[p.algorithm];
    tupelo::Tupelo system(*p.source, *p.target);
    system.set_registry(p.registry);
    for (const auto& c : p.correspondences) system.AddCorrespondence(c);
    LayerSums sums;
    std::string cause = TraceOne(p, system, &session, &sums);
    ++checked;
    std::printf("%-60s %s\n", p.id.c_str(), cause.empty() ? "ok" : cause.c_str());
    if (!cause.empty()) ++mismatches;
  }
  std::printf("selftest: %d problems, %d mismatches\n", checked, mismatches);
  return mismatches;
}

}  // namespace perfbench
