#ifndef TUPELO_SEARCH_CONTEXT_H_
#define TUPELO_SEARCH_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/search_types.h"

namespace tupelo {

// The plumbing every search algorithm shares, created once per search
// call: the budget guard, the search.* instruments, the trace session and
// the call's "search.<algo>" span, the checkpoint sink (null when none is
// installed for the problem's state/action types), the counted Expand,
// and the outcome being built. Each algorithm keeps only its control
// loop and calls these steps in its own order (the order fixes the
// reported counts, so it is the algorithm's to choose). Every method is
// a small inline call: no virtual dispatch or type-erased callback on the
// per-visit path.
//
// Instruments resolve once from the nullable MetricRegistry; with a null
// registry every hook is a single branch on a null pointer, so
// uninstrumented searches pay no measurable overhead. Metric names (see
// docs/OBSERVABILITY.md for the full catalog):
//   search.states_examined   counter, mirrors SearchStats::states_examined
//   search.states_generated  counter, successors produced by Expand
//   search.expansions        counter, calls to Problem::Expand
//   search.re_expansions     counter, visits of a state key seen earlier in
//                            this search (IDA* re-iterations, RBFS
//                            re-descents, A* re-openings)
//   search.duplicate_hits    counter, successors skipped by cycle/closed/
//                            best-g checks
//   search.iterations        counter, completed IDA* iterations
//   search.f_bound           histogram, the f-bound of each IDA* iteration
//   search.peak_memory_nodes max gauge, mirrors SearchStats peak memory
template <typename P>
struct SearchContext {
  using State = typename P::State;
  using Action = typename P::Action;

  // `span_key`/`span_value` optionally annotate the search span.
  SearchContext(const P& problem, const SearchLimits& limits,
                obs::MetricRegistry* metrics, obs::TraceSession* trace,
                const char* span_name, const char* span_key = nullptr,
                int64_t span_value = 0)
      : problem(problem),
        limits(limits),
        guard(limits),
        trace(trace),
        span(trace, obs::TraceCategory::kSearch, span_name, span_key,
             span_value),
        sink(dynamic_cast<CheckpointSink<State, Action>*>(
            limits.checkpoint_sink)) {
    if (metrics == nullptr) return;
    examined = &metrics->GetCounter("search.states_examined");
    generated = &metrics->GetCounter("search.states_generated");
    expansions = &metrics->GetCounter("search.expansions");
    re_expansions = &metrics->GetCounter("search.re_expansions");
    duplicate_hits = &metrics->GetCounter("search.duplicate_hits");
    iterations = &metrics->GetCounter("search.iterations");
    f_bound = &metrics->GetHistogram("search.f_bound",
                                     obs::ExponentialBounds(1, 2, 16));
    peak_memory = &metrics->GetGauge("search.peak_memory_nodes");
  }

  // True, with the outcome's stop reason set, when a limit trips before
  // examining a state at g-value `depth` with `memory_nodes` retained.
  bool OverBudget(int64_t depth, uint64_t memory_nodes) {
    std::optional<StopReason> stop =
        guard.Check(out.stats.states_examined, depth, memory_nodes);
    if (!stop) return false;
    out.stop = *stop;
    return true;
  }

  // True once OverBudget has tripped: the search must unwind.
  bool Stopped() const { return IsResourceStop(out.stop); }

  // The algorithm's own retained states plus the problem's caches.
  uint64_t MemoryNodes(uint64_t own) const {
    return own + AuxMemoryNodes(problem);
  }

  void RecordPeak(uint64_t nodes) {
    out.stats.peak_memory_nodes = std::max(out.stats.peak_memory_nodes, nodes);
    if (peak_memory != nullptr) {
      peak_memory->UpdateMax(static_cast<int64_t>(nodes));
    }
  }

  // Counts one examined state with heuristic `h`; `value` is the priority
  // the trace shows (f, or h for greedy/beam). Returns true when `h` is
  // the best seen so far; the caller then records the anytime best path.
  bool Visit(const State& state, int64_t g, int h, int64_t value) {
    ++out.stats.states_examined;
    if (examined != nullptr) {
      examined->Increment();
      // The visited-key set exists only to attribute repeat visits.
      if (!visited_keys.insert(problem.StateKey(state)).second) {
        re_expansions->Increment();
      }
    }
    if (trace != nullptr) {
      trace->EmitInstant(obs::TraceCategory::kSearch, "visit", "f", value,
                         "g", g);
    }
    if (out.best_h >= 0 && h >= out.best_h) return false;
    out.best_h = h;
    return true;
  }

  // The goal was reached along `path`.
  void Goal(std::vector<Action> path) {
    const int cost = static_cast<int>(path.size());
    if (trace != nullptr) {
      trace->EmitInstant(obs::TraceCategory::kSearch, "goal", "g", cost);
    }
    out.found = true;
    out.stop = StopReason::kFound;
    out.stats.solution_cost = cost;
    out.best_path = path;
    out.path = std::move(path);
    out.best_h = 0;
  }

  // IDA*: a new iteration began (depth 0, value = the f-bound); beam: a new
  // level began (depth = level, value = the level's best h).
  void Iteration(int depth, int64_t value) {
    if (trace != nullptr) {
      trace->EmitInstant(obs::TraceCategory::kSearch, "iteration", "value",
                         value, "depth", depth);
    }
  }

  auto Expand(const State& state) {
    auto successors = problem.Expand(state);
    CountExpand(successors.size());
    return successors;
  }

  void CountExpand(size_t n) {
    out.stats.states_generated += n;
    if (expansions != nullptr) {
      expansions->Increment();
      generated->Increment(n);
    }
  }

  // A successor was discarded by duplicate detection.
  void DuplicateHit() {
    if (duplicate_hits != nullptr) duplicate_hits->Increment();
  }

  // Offers the sink a snapshot carrying the common progress fields;
  // `fill` adds the algorithm's resumable core. Algorithms that poll on
  // the guard's tick check guard.checkpoint_due() first.
  template <typename Fill>
  void OfferSnapshot(Fill&& fill) {
    if (sink == nullptr || !sink->WantSnapshot(out.stats.states_examined)) {
      return;
    }
    SearchSeed<State, Action> snap;
    snap.states_examined = out.stats.states_examined;
    snap.best_path = out.best_path;
    snap.best_h = out.best_h;
    fill(snap);
    sink->OnSnapshot(std::move(snap));
  }

  SearchOutcome<Action> Finish() { return std::move(out); }

  const P& problem;
  const SearchLimits& limits;
  BudgetGuard guard;
  obs::TraceSession* trace;
  obs::TraceSpan span;
  CheckpointSink<State, Action>* sink;
  SearchOutcome<Action> out;

  // Instruments; all null without a registry.
  obs::Counter* examined = nullptr;
  obs::Counter* generated = nullptr;
  obs::Counter* expansions = nullptr;
  obs::Counter* re_expansions = nullptr;
  obs::Counter* duplicate_hits = nullptr;
  obs::Counter* iterations = nullptr;
  obs::Histogram* f_bound = nullptr;
  obs::Gauge* peak_memory = nullptr;
  std::unordered_set<uint64_t> visited_keys;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_CONTEXT_H_
