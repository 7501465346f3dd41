#ifndef TUPELO_SEARCH_PARALLEL_BEAM_H_
#define TUPELO_SEARCH_PARALLEL_BEAM_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "search/context.h"
#include "search/search_types.h"

namespace tupelo {

// Level-synchronous beam search: keep only the `beam_width` lowest-h
// states per depth level. Another of §7's "further search techniques" —
// the cheapest memory-bounded best-first variant, and deliberately
// *incomplete*: if every goal path leaves the beam, the search fails even
// though a mapping exists. Useful as a recall benchmark for heuristics
// (a heuristic whose beam-8 recall is high is trustworthy greedily).
//
// Each depth level runs in two phases:
//
//   Phase A (only with a `pool` of more than one worker): each frontier
//   node's goal test, expansion, and per-successor fingerprint + estimate
//   run as one pool task. Workers touch only their own Prepared slot and
//   the problem's const surface (which MappingProblem makes thread-safe).
//
//   Phase B (the calling thread, in frontier order): budget check,
//   examined count, best-h update, goal test, then successor dedup
//   against `seen` in generation order. A node without a Phase A result
//   (no pool, or a worker that saw the CancelToken and bowed out) is
//   goal-tested and expanded here, and only the successors that survive
//   dedup are estimated, in one batch — so the pool-free beam does no
//   heuristic work on duplicates.
//
// The dedup set, the budget guard, and every stats update run in the same
// order either way, so the SearchOutcome does not depend on the pool (the
// only divergence channel is the expand transposition cache's LRU order,
// which can shift AuxMemoryNodes after an eviction; see
// docs/PERFORMANCE.md).
//
// Tracing: each level opens with an "iteration" instant whose value is the
// frontier's smallest h — the beam's analog of IDA*'s f-bound, and the
// easiest way to see a beam stall (the best h stops falling).
//
// Checkpointing: the level barrier is the beam's checkpoint boundary (the
// only point where its state is a compact frontier). When a sink is
// installed it is offered a snapshot — frontier, dedup set, level index —
// at the top of each level; a `seed` carrying a frontier resumes the level
// loop exactly where that snapshot was taken, with bit-identical
// continuation.
//
// Instruments (beyond search.*), pooled levels only: beam.parallel.levels
// counts level barriers, beam.parallel.tasks the node-expansion tasks.
template <typename P>
SearchOutcome<typename P::Action> ParallelBeamSearch(
    const P& problem, size_t beam_width, ThreadPool* pool,
    const SearchLimits& limits = SearchLimits(),
    obs::MetricRegistry* metrics = nullptr,
    const SearchSeed<typename P::State, typename P::Action>* seed = nullptr,
    obs::TraceSession* trace = nullptr) {
  using Action = typename P::Action;
  using State = typename P::State;

  if (pool != nullptr && pool->size() <= 1) pool = nullptr;
  SearchContext<P> ctx(
      problem, limits, metrics, trace,
      pool != nullptr ? "search.parallel_beam" : "search.beam",
      pool != nullptr ? "workers" : nullptr,
      pool != nullptr ? static_cast<int64_t>(pool->size()) : 0);
  if (beam_width == 0) return ctx.Finish();

  obs::Counter* levels = nullptr;
  obs::Counter* tasks = nullptr;
  if (metrics != nullptr && pool != nullptr) {
    levels = &metrics->GetCounter("beam.parallel.levels");
    tasks = &metrics->GetCounter("beam.parallel.tasks");
  }

  struct Node {
    State state;
    std::vector<Action> path;
    int64_t h;
  };
  auto by_h = [](const Node& a, const Node& b) { return a.h < b.h; };

  // One node's goal test, expansion and successor fingerprints. A Phase A
  // slot is written by exactly one worker task and read by Phase B after
  // the WaitGroup barrier (which provides the happens-before edge). `hs`
  // is empty until the successors are estimated.
  struct Prepared {
    bool ready = false;
    bool is_goal = false;
    decltype(problem.Expand(problem.initial_state())) successors;
    std::vector<Fp128> keys;
    std::vector<int> hs;
  };
  auto expand = [&problem](const Node& node, Prepared& slot) {
    slot.ready = true;
    slot.is_goal = problem.IsGoal(node.state);
    if (slot.is_goal) return;
    slot.successors = problem.Expand(node.state);
    slot.keys.reserve(slot.successors.size());
    for (const auto& succ : slot.successors) {
      slot.keys.push_back(StateFingerprint(problem, succ.state));
    }
  };
  // Phase A's task: runs on a worker, so its span lands on that worker's
  // trace track, and estimates every successor in one batch.
  auto prepare = [&problem, &expand, trace](const Node& node,
                                            Prepared& slot) {
    obs::TraceSpan prep_span(trace, obs::TraceCategory::kSearch,
                             "beam.prepare");
    expand(node, slot);
    std::vector<const State*> succ_states;
    succ_states.reserve(slot.successors.size());
    for (const auto& succ : slot.successors) succ_states.push_back(&succ.state);
    if (!slot.is_goal) slot.hs = EstimateCosts(problem, succ_states);
  };

  // Dedup on the full 128-bit identity: a 64-bit collision here would
  // silently drop a distinct reachable state from the (already
  // incomplete) beam.
  std::unordered_set<Fp128, Fp128Hash> seen;
  std::vector<Node> frontier;
  int start_depth = 0;
  if (seed != nullptr && !seed->frontier.empty()) {
    // Resume from a checkpointed level barrier. h is recomputed (the
    // heuristic is deterministic) rather than trusted from the seed.
    for (const auto& entry : seed->frontier) {
      frontier.push_back(
          Node{entry.state, entry.path, problem.EstimateCost(entry.state)});
    }
    seen.reserve(seed->closed.size());
    for (const auto& [fp, g] : seed->closed) seen.insert(fp);
    start_depth = seed->beam_depth;
  } else {
    const State& root = problem.initial_state();
    seen.insert(StateFingerprint(problem, root));
    frontier.push_back(Node{root, {}, problem.EstimateCost(root)});
  }

  WaitGroup wg;

  for (int depth = start_depth; depth <= limits.max_depth; ++depth) {
    // The memory proxy is taken once per level, before any expansion.
    const uint64_t nodes = ctx.MemoryNodes(
        static_cast<uint64_t>(frontier.size() + seen.size()));
    ctx.RecordPeak(nodes);
    ctx.OfferSnapshot([&](SearchSeed<State, Action>& snap) {
      snap.beam_depth = depth;
      snap.frontier.reserve(frontier.size());
      for (const Node& node : frontier) {
        snap.frontier.push_back({node.state, node.path, node.h});
      }
      snap.closed.reserve(seen.size());
      for (const Fp128& fp : seen) snap.closed.emplace_back(fp, 0);
    });
    const int64_t level_best_h =
        std::min_element(frontier.begin(), frontier.end(), by_h)->h;
    ctx.Iteration(depth, level_best_h);
    if (levels != nullptr) levels->Increment();
    obs::TraceSpan level_span(trace, obs::TraceCategory::kSearch,
                              "beam.level", "level", depth, "best_h",
                              level_best_h);

    // Phase A: fan the frontier out across the pool. Without one, a
    // single slot is reused for each node in turn.
    std::vector<Prepared> prepared(pool != nullptr ? frontier.size() : 1);
    if (pool != nullptr) {
      obs::TraceSpan fan_span(trace, obs::TraceCategory::kSearch,
                              "beam.phase_a", "tasks",
                              static_cast<int64_t>(frontier.size()));
      wg.Add(frontier.size());
      for (size_t i = 0; i < frontier.size(); ++i) {
        pool->Submit([&frontier, &prepared, &prepare, &limits, &wg, i] {
          if (limits.cancel == nullptr || !limits.cancel->cancelled()) {
            // wg.Done() must run even if prepare throws (a real
            // bad_alloc): a leaked Done would wedge the barrier forever.
            // The slot is reset so the merge phase recomputes it inline —
            // on the caller's thread, where the exception propagates to
            // the caller instead of a worker.
            try {
              prepare(frontier[i], prepared[i]);
            } catch (...) {
              prepared[i] = Prepared{};
            }
          }
          wg.Done();
        });
      }
      if (tasks != nullptr) tasks->Increment(frontier.size());
      wg.Wait();
    }

    // Phase B: sequential merge in frontier order.
    obs::TraceSpan merge_span(pool != nullptr ? trace : nullptr,
                              obs::TraceCategory::kSearch, "beam.phase_b");
    std::vector<Node> next_level;
    for (size_t i = 0; i < frontier.size(); ++i) {
      Node& node = frontier[i];
      // Depth is bounded by the level loop itself; pass 0 so the guard
      // only trips states/memory/deadline/cancel here.
      if (ctx.OverBudget(0, nodes)) return ctx.Finish();
      if (ctx.Visit(node.state, depth, static_cast<int>(node.h), node.h)) {
        ctx.out.best_path = node.path;
      }

      Prepared& prep = prepared[pool != nullptr ? i : 0];
      if (!prep.ready) expand(node, prep);
      if (prep.is_goal) {
        ctx.Goal(std::move(node.path));
        return ctx.Finish();
      }

      ctx.CountExpand(prep.successors.size());
      std::vector<size_t> fresh;
      std::vector<const State*> fresh_states;
      std::vector<int> fresh_hs;
      for (size_t s = 0; s < prep.successors.size(); ++s) {
        if (!seen.insert(prep.keys[s]).second) {
          ctx.DuplicateHit();
          continue;
        }
        fresh.push_back(s);
        fresh_states.push_back(&prep.successors[s].state);
        if (!prep.hs.empty()) fresh_hs.push_back(prep.hs[s]);
      }
      // Not estimated in Phase A: estimate only the survivors, in one batch.
      if (prep.hs.empty()) fresh_hs = EstimateCosts(problem, fresh_states);
      for (size_t k = 0; k < fresh.size(); ++k) {
        auto& succ = prep.successors[fresh[k]];
        std::vector<Action> path = node.path;
        path.push_back(std::move(succ.action));
        next_level.push_back(
            Node{std::move(succ.state), std::move(path), fresh_hs[k]});
      }
      prep = Prepared{};
    }
    if (next_level.empty()) return ctx.Finish();  // beam ran dry

    // Keep the beam_width best by h (stable within ties).
    if (next_level.size() > beam_width) {
      if (trace != nullptr) {
        trace->EmitInstant(
            obs::TraceCategory::kSearch, "beam.dropped", "dropped",
            static_cast<int64_t>(next_level.size() - beam_width), "level",
            depth);
      }
      std::stable_sort(next_level.begin(), next_level.end(), by_h);
      next_level.resize(beam_width);
    }
    frontier = std::move(next_level);
  }
  ctx.out.stop = StopReason::kDepth;  // level loop ran out of depth budget
  ctx.out.budget_exhausted = true;
  return ctx.Finish();
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_PARALLEL_BEAM_H_
