#ifndef TUPELO_SEARCH_BEST_FIRST_H_
#define TUPELO_SEARCH_BEST_FIRST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/context.h"
#include "search/search_types.h"

namespace tupelo {

// Best-first search with an open list and a closed map of best g per
// state, shared by A* and greedy. `Priority` (a_star.h, greedy.h) supplies
// the search span name kSpanName; Key(g, h), the priority the trace shows;
// SeedKey(g, h), the snapshot's informational open-entry key; Worse(a, b),
// a total order on entries' g, h and insertion seq, so pops are
// deterministic; and kReopen, whether a cheaper path reopens a seen state.
// Without kReopen the closed map is a membership set: a state is queued at
// most once, no entry goes stale, and its g (0 in snapshots) is never read.
//
// Checkpointing: a snapshot serializes the live open list (each entry's
// action path plus its original seq number) and the closed map. Resume
// rebuilds the heap from those paths — g is the path length, h is
// recomputed from the deterministic heuristic, and the preserved seq keeps
// FIFO tiebreaks — so pops continue in exactly the order the uninterrupted
// run would have used.
template <typename Priority, typename P>
SearchOutcome<typename P::Action> BestFirstSearch(
    const P& problem, const SearchLimits& limits,
    obs::MetricRegistry* metrics,
    const SearchSeed<typename P::State, typename P::Action>* seed,
    obs::TraceSession* trace) {
  using Action = typename P::Action;
  using State = typename P::State;

  SearchContext<P> ctx(problem, limits, metrics, trace, Priority::kSpanName);

  struct Node {
    State state;
    Fp128 key;  // full 128-bit identity
    int64_t g;
    // Parent chain for path reconstruction.
    std::shared_ptr<const Node> parent;
    Action action_from_parent;  // undefined for the root
    // Actions leading to this node when it is a chain root restored from
    // a checkpoint (empty otherwise); reconstruct() prepends it.
    std::vector<Action> prefix;
  };
  using NodePtr = std::shared_ptr<const Node>;

  struct QueueEntry {
    int64_t g;
    int64_t h;
    uint64_t seq;  // FIFO tiebreak for determinism
    NodePtr node;
  };
  auto worse = [](const QueueEntry& a, const QueueEntry& b) {
    return Priority::Worse(a, b);
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, decltype(worse)>
      open(worse);
  // Best g seen per state, keyed on the full 128-bit identity: a 64-bit
  // collision would alias two distinct states and silently prune one.
  std::unordered_map<Fp128, int64_t, Fp128Hash> best_g;
  uint64_t seq = 0;

  auto reconstruct = [](const Node* n) {
    std::vector<Action> path;
    for (; n->parent != nullptr; n = n->parent.get()) {
      path.push_back(n->action_from_parent);
    }
    std::reverse(path.begin(), path.end());
    path.insert(path.begin(), n->prefix.begin(), n->prefix.end());
    return path;
  };
  // An entry superseded by a cheaper path to its state; never examined.
  auto stale = [&best_g](const Node& n) {
    if constexpr (!Priority::kReopen) return false;
    auto it = best_g.find(n.key);
    return it != best_g.end() && it->second < n.g;
  };

  if (seed != nullptr && !seed->open.empty()) {
    // Resume: rebuild the open list from checkpointed paths. Each entry
    // becomes its own chain root carrying its path as the prefix.
    seq = seed->next_seq;
    for (const auto& entry : seed->open) {
      const int64_t g = static_cast<int64_t>(entry.path.size());
      NodePtr n(new Node{entry.state, StateFingerprint(problem, entry.state),
                         g, nullptr, Action{}, entry.path});
      open.push(QueueEntry{g, problem.EstimateCost(entry.state), entry.seq,
                           std::move(n)});
    }
    best_g.reserve(seed->closed.size());
    for (const auto& [fp, g] : seed->closed) best_g[fp] = g;
  } else {
    const State& root_state = problem.initial_state();
    NodePtr root(new Node{root_state, StateFingerprint(problem, root_state), 0,
                          nullptr, Action{}, {}});
    best_g[root->key] = 0;
    open.push(QueueEntry{0, problem.EstimateCost(root_state), seq++, root});
  }

  NodePtr best_node;  // anytime: lowest-h state examined so far

  while (!open.empty()) {
    const uint64_t memory_nodes =
        ctx.MemoryNodes(static_cast<uint64_t>(open.size() + best_g.size()));
    ctx.RecordPeak(memory_nodes);
    if (ctx.guard.checkpoint_due()) {
      ctx.OfferSnapshot([&](SearchSeed<State, Action>& snap) {
        if (best_node != nullptr) {
          snap.best_path = reconstruct(best_node.get());
        }
        auto copy = open;  // heap copy; drained below in pop order
        while (!copy.empty()) {
          const QueueEntry& e = copy.top();
          // Dropping stale entries keeps the snapshot compact without
          // changing the resumed run's behavior.
          if (!stale(*e.node)) {
            snap.open.push_back({e.node->state, reconstruct(e.node.get()),
                                 Priority::SeedKey(e.g, e.h), e.seq});
          }
          copy.pop();
        }
        snap.next_seq = seq;
        snap.closed.reserve(best_g.size());
        for (const auto& [fp, g] : best_g) {
          snap.closed.emplace_back(fp, Priority::kReopen ? g : 0);
        }
      });
    }
    QueueEntry entry = open.top();
    open.pop();
    const NodePtr& node = entry.node;
    if (stale(*node)) continue;

    if (ctx.OverBudget(node->g, memory_nodes)) break;
    if (ctx.Visit(node->state, node->g, static_cast<int>(entry.h),
                  Priority::Key(node->g, entry.h))) {
      best_node = node;
    }

    if (problem.IsGoal(node->state)) {
      ctx.Goal(reconstruct(node.get()));
      return ctx.Finish();
    }

    for (auto& succ : ctx.Expand(node->state)) {
      Fp128 key = StateFingerprint(problem, succ.state);
      int64_t g = node->g + 1;
      auto [git, inserted] = best_g.try_emplace(key, g);
      if (!inserted) {
        if (!Priority::kReopen || git->second <= g) {
          ctx.DuplicateHit();
          continue;
        }
        git->second = g;
      }
      int64_t h = problem.EstimateCost(succ.state);
      NodePtr child(new Node{std::move(succ.state), key, g, node,
                             std::move(succ.action), {}});
      open.push(QueueEntry{g, h, seq++, std::move(child)});
    }
  }
  if (best_node != nullptr) ctx.out.best_path = reconstruct(best_node.get());
  return ctx.Finish();
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_BEST_FIRST_H_
