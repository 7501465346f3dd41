#ifndef TUPELO_SEARCH_IDA_STAR_H_
#define TUPELO_SEARCH_IDA_STAR_H_

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "search/context.h"
#include "search/search_types.h"

namespace tupelo {

// Iterative Deepening A* (Korf 1985, as described in Nilsson 1998 / §2.3 of
// the paper): repeated depth-first probes bounded by f = g + h, raising the
// bound to the smallest exceeded f-value between iterations. Memory is
// linear in the search depth; states are re-examined across iterations and
// each re-visit counts toward stats.states_examined (the paper's measure).
//
// Cycle avoidance: successors whose full 128-bit identity already occurs
// on the current path are skipped (they can never shorten a unit-cost
// path). Keying on the 64-bit StateKey would let a collision alias two
// distinct path states and wrongly prune a reachable successor.
//
// `metrics` (nullable, default off) feeds the search.* instruments of
// search/context.h.
//
// Checkpointing: a snapshot carries only progress counters and the
// current f-bound — the DFS stack is not serialized. Resume restarts the
// probe at the checkpointed bound; because the DFS is deterministic, the
// resumed run finds the same goal the uninterrupted run would (it merely
// re-expands the prefix of the final iteration).
template <typename P>
SearchOutcome<typename P::Action> IdaStarSearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    obs::MetricRegistry* metrics = nullptr,
    const SearchSeed<typename P::State, typename P::Action>* seed = nullptr,
    obs::TraceSession* trace = nullptr) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchContext<P> ctx(problem, limits, metrics, trace, "search.ida");

  struct Dfs {
    SearchContext<P>& ctx;
    std::vector<Action> path_actions;
    std::unordered_set<Fp128, Fp128Hash> path_keys;
    int64_t next_bound = kSearchInfinity;

    // True when a goal was reached at or below `state`.
    bool Visit(const State& state, int64_t g, int64_t bound) {
      const uint64_t memory_nodes =
          ctx.MemoryNodes(static_cast<uint64_t>(g) + 1);
      if (ctx.OverBudget(g, memory_nodes)) return false;
      if (ctx.guard.checkpoint_due()) {
        ctx.OfferSnapshot([bound](SearchSeed<State, Action>& snap) {
          snap.ida_bound = bound;
        });
      }
      ctx.RecordPeak(memory_nodes);

      const int h = ctx.problem.EstimateCost(state);
      const int64_t f = g + h;
      if (ctx.Visit(state, g, h, f)) ctx.out.best_path = path_actions;
      if (f > bound) {
        next_bound = std::min(next_bound, f);
        return false;
      }
      if (ctx.problem.IsGoal(state)) {
        ctx.Goal(path_actions);
        return true;
      }
      for (auto& succ : ctx.Expand(state)) {
        Fp128 key = StateFingerprint(ctx.problem, succ.state);
        if (path_keys.contains(key)) {
          ctx.DuplicateHit();
          continue;
        }
        path_keys.insert(key);
        path_actions.push_back(succ.action);
        const bool found = Visit(succ.state, g + 1, bound);
        path_actions.pop_back();
        path_keys.erase(key);
        if (found || ctx.Stopped()) return found;
      }
      return false;
    }
  };

  Dfs dfs{ctx, {}, {}, kSearchInfinity};
  const State& root = problem.initial_state();
  const Fp128 root_key = StateFingerprint(problem, root);
  int64_t bound = problem.EstimateCost(root);
  if (seed != nullptr && seed->ida_bound >= 0) {
    // Resume: skip the iterations below the checkpointed bound. Bounds
    // only grow across iterations, so max() is the right merge.
    bound = std::max(bound, seed->ida_bound);
  }

  while (true) {
    ctx.Iteration(0, bound);
    if (ctx.iterations != nullptr) {
      ctx.iterations->Increment();
      ctx.f_bound->Observe(bound);
    }
    obs::TraceSpan iter_span(trace, obs::TraceCategory::kSearch,
                             "ida.iteration", "bound", bound);
    dfs.next_bound = kSearchInfinity;
    dfs.path_keys = {root_key};
    dfs.path_actions.clear();
    const uint64_t states_before = ctx.out.stats.states_examined;
    const bool found = dfs.Visit(root, 0, bound);
    ++ctx.out.stats.iterations;
    iter_span.SetEndArg("states", static_cast<int64_t>(
                                      ctx.out.stats.states_examined -
                                      states_before));
    // Found, stopped, or no f-value exceeded the bound: space exhausted.
    if (found || ctx.Stopped() || dfs.next_bound >= kSearchInfinity) {
      return ctx.Finish();
    }
    bound = dfs.next_bound;
  }
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_IDA_STAR_H_
