#ifndef TUPELO_SEARCH_A_STAR_H_
#define TUPELO_SEARCH_A_STAR_H_

#include <cstdint>

#include "search/best_first.h"

namespace tupelo {

// Classic best-first A* with open/closed lists. Kept as the baseline the
// paper's early TUPELO implementation used and abandoned: its memory use is
// exponential in the search depth (tracked in stats.peak_memory_nodes),
// which is what the linear-memory IDA*/RBFS implementations fix.
//
// Orders by f = g + h, then deeper g, then insertion order. A cheaper path
// to a seen state reopens it; the superseded entry goes stale and is
// skipped when popped.
struct AStarPriority {
  static constexpr const char* kSpanName = "search.astar";
  static constexpr bool kReopen = true;
  static int64_t Key(int64_t g, int64_t h) { return g + h; }
  static int64_t SeedKey(int64_t g, int64_t /*h*/) { return g; }
  template <typename E>
  static bool Worse(const E& a, const E& b) {
    if (a.g + a.h != b.g + b.h) return a.g + a.h > b.g + b.h;
    if (a.g != b.g) return a.g < b.g;  // prefer deeper (closer to goal)
    return a.seq > b.seq;
  }
};

template <typename P>
SearchOutcome<typename P::Action> AStarSearch(
    const P& problem, const SearchLimits& limits = SearchLimits(),
    obs::MetricRegistry* metrics = nullptr,
    const SearchSeed<typename P::State, typename P::Action>* seed = nullptr,
    obs::TraceSession* trace = nullptr) {
  return BestFirstSearch<AStarPriority>(problem, limits, metrics, seed, trace);
}

}  // namespace tupelo

#endif  // TUPELO_SEARCH_A_STAR_H_
