#ifndef TUPELO_SEARCH_GREEDY_H_
#define TUPELO_SEARCH_GREEDY_H_

#include <cstdint>

#include "search/best_first.h"

namespace tupelo {

// Greedy best-first search: expand the open node with the smallest h,
// ignoring path cost. One of the "further search techniques from the AI
// literature" the paper's future work (§7) points at: it trades the
// optimality pressure of f = g + h for raw goal-seeking speed, and is a
// useful comparison point for TUPELO's heuristics — a heuristic that only
// works under greedy search is too weak to order f-ties, and one that
// fails under greedy search is actively misleading.
//
// Memory grows with the states retained (like A*); duplicates are pruned
// via the closed set, so states are queued and examined at most once.
struct GreedyPriority {
  static constexpr const char* kSpanName = "search.greedy";
  static constexpr bool kReopen = false;
  static int64_t Key(int64_t /*g*/, int64_t h) { return h; }
  static int64_t SeedKey(int64_t /*g*/, int64_t h) { return h; }
  template <typename E>
  static bool Worse(const E& a, const E& b) {
    if (a.h != b.h) return a.h > b.h;
    return a.seq > b.seq;  // FIFO tiebreak
  }
};

template <typename P>
SearchOutcome<typename P::Action> GreedySearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    obs::MetricRegistry* metrics = nullptr,
    const SearchSeed<typename P::State, typename P::Action>* seed = nullptr,
    obs::TraceSession* trace = nullptr) {
  return BestFirstSearch<GreedyPriority>(problem, limits, metrics, seed, trace);
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_GREEDY_H_
