#ifndef TUPELO_SEARCH_SEARCH_TYPES_H_
#define TUPELO_SEARCH_SEARCH_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace tupelo {

// Generic state-space search (src/search) is written against a Problem
// "duck type" P providing:
//
//   using State  = ...;   // value type
//   using Action = ...;   // value type
//   struct SuccessorT { Action action; State state; };
//
//   const State& initial_state() const;
//   bool IsGoal(const State& s) const;
//   // Successors in a deterministic order. Unit step costs. Expand must
//   // be a pure function of the state: the successor set and its order
//   // may not depend on which thread or pool worker computes it.
//   std::vector<SuccessorT> Expand(const State& s) const;
//   // Heuristic estimate h(s) ≥ 0 of the distance to a goal.
//   int EstimateCost(const State& s) const;
//   // Stable fingerprint for duplicate/cycle detection.
//   uint64_t StateKey(const State& s) const;
//
// Optionally, a problem may also provide
//
//   size_t AuxMemoryNodes() const;
//
// reporting states the *problem* retains (e.g. a transposition cache of
// Expand results). The algorithms add it to their own memory proxy, so
// problem-side caches count toward SearchLimits::max_memory_nodes.
//
// A problem may also provide the full 128-bit identity
//
//   Fp128 StateKey128(const State& s) const;
//
// which the algorithms' duplicate/cycle-detection sets key on when
// present (see StateFingerprint below). Problems with large reachable
// spaces should: a 64-bit key collides at the birthday bound (~2^32
// states), and a collision in a dedup set silently drops a distinct
// reachable state.
//
// MappingProblem (src/core) is the real instance; tests use toy problems.
// The four algorithms (IDA*, RBFS, best-first A*/greedy, beam) share their
// plumbing through SearchContext (context.h).

inline constexpr int64_t kSearchInfinity =
    std::numeric_limits<int64_t>::max() / 4;

// States retained by the problem itself (caches of Expand results and the
// like), to be folded into an algorithm's memory proxy. Zero for problems
// that do not declare AuxMemoryNodes(), which keeps the duck type small
// for toy problems.
template <typename Problem>
uint64_t AuxMemoryNodes(const Problem& problem) {
  if constexpr (requires { problem.AuxMemoryNodes(); }) {
    return static_cast<uint64_t>(problem.AuxMemoryNodes());
  } else {
    return 0;
  }
}

// The state identity the dedup/cycle sets key on: the problem's full
// 128-bit fingerprint when it provides one, else both lanes derived from
// the 64-bit StateKey (Mix64 keeps the lanes distinct so Fp128Hash still
// spreads well; a problem without StateKey128 keeps its original 64-bit
// collision behavior, which is fine for the toy spaces that omit it).
template <typename Problem, typename State>
Fp128 StateFingerprint(const Problem& problem, const State& state) {
  if constexpr (requires { problem.StateKey128(state); }) {
    return problem.StateKey128(state);
  } else {
    uint64_t key = problem.StateKey(state);
    return Fp128{key, Mix64(key)};
  }
}

// Why a search stopped. kFound and kExhausted are conclusive (goal reached
// / finite space swept without one); everything else is a resource trip,
// i.e. failure is inconclusive and the anytime fields of SearchOutcome
// carry the best progress made.
enum class StopReason {
  kFound,      // goal reached
  kExhausted,  // reachable space swept without reaching a goal
  kStates,     // SearchLimits::max_states tripped
  kDepth,      // SearchLimits::max_depth tripped
  kMemory,     // SearchLimits::max_memory_nodes tripped
  kDeadline,   // SearchLimits::deadline_millis tripped
  kCancelled,  // CancelToken fired
};

// "found", "exhausted", "states", "depth", "memory", "deadline",
// "cancelled" — stable names for reports and logs.
inline std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kFound:
      return "found";
    case StopReason::kExhausted:
      return "exhausted";
    case StopReason::kStates:
      return "states";
    case StopReason::kDepth:
      return "depth";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// True for the inconclusive stops (a resource bound or caller intervention
// cut the search short).
inline bool IsResourceStop(StopReason reason) {
  return reason != StopReason::kFound && reason != StopReason::kExhausted;
}

// Cooperative cancellation flag. Cancel() may be called from any thread
// while a search is running; the search observes it at its next
// deadline/cancel poll (every SearchLimits::check_interval visits) and
// stops with StopReason::kCancelled. The token is reusable across
// searches via Reset().
//
// Tokens chain: a token with a parent reports cancelled when either it
// or the parent has fired. Discover's checkpoint-kill seam and the serve
// layer's per-job tokens are parented on the caller's (or the manager's),
// so they can stop one run without consuming the parent token, while a
// parent-side Cancel still stops the run.
//
// The chain is held through shared, heap-allocated flag nodes: a child
// keeps its parent's node alive, so cancelled() stays safe (and keeps
// reporting the parent's last state) even after the parent CancelToken
// object itself has been destroyed. Cancel() is still one relaxed atomic
// store; cancelled() walks the (short) chain of relaxed loads.
class CancelToken {
 public:
  CancelToken() : node_(std::make_shared<Node>()) {}
  explicit CancelToken(const CancelToken* parent)
      : node_(std::make_shared<Node>()) {
    if (parent != nullptr) node_->parent = parent->node_;
  }

  void Cancel() { node_->flag.store(true, std::memory_order_relaxed); }
  // Resets this token's own flag only; an already-fired parent still
  // reports through.
  void Reset() { node_->flag.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    for (const Node* n = node_.get(); n != nullptr; n = n->parent.get()) {
      if (n->flag.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

 private:
  struct Node {
    std::atomic<bool> flag{false};
    std::shared_ptr<const Node> parent;  // keeps the ancestor chain alive
  };
  std::shared_ptr<Node> node_;
};

// Type-erased base for CheckpointSink<State, Action> so SearchLimits can
// carry a sink without being templated. SearchContext downcasts it once
// per search call; a sink instantiated for other state/action types
// simply resolves to null (no checkpointing) instead of misbehaving.
class CheckpointSinkBase {
 public:
  virtual ~CheckpointSinkBase() = default;
};

// A resumable snapshot of one search call, captured at an algorithm's
// checkpoint boundary and sufficient to continue the run after process
// death (see docs/ROBUSTNESS.md, "Checkpoint & resume contract"):
//
//   * IDA*: `ida_bound`, the current iteration's f-bound. Resuming
//     restarts iterative deepening at that bound; the completed shallower
//     iterations are not repeated.
//   * Beam (pooled or not): the whole frontier (states + paths + h) and
//     the dedup set (`closed` fingerprints) at a level barrier, plus
//     `beam_depth`. Resuming continues the level loop exactly where the
//     snapshot was taken.
//   * A* / greedy (best-first): the open list (paths, insertion sequence
//     numbers) and the closed map. States and f/h values are
//     reconstructed deterministically on resume, and preserved `seq`
//     numbers keep the FIFO tiebreaks — continuation is order-identical.
//   * RBFS: no per-algorithm seed (its backed-up-value recursion has no
//     compact frontier); resuming restarts the rung from the root, which
//     is result-equivalent because the search is deterministic.
//
// The common fields carry run progress for budget continuity and the
// anytime best partial path.
template <typename State, typename Action>
struct SearchSeed {
  // Progress at capture.
  uint64_t states_examined = 0;
  std::vector<Action> best_path;
  int best_h = -1;

  // IDA*: current iteration bound (-1 = none).
  int64_t ida_bound = -1;

  // Beam: frontier at a level barrier plus the level index.
  struct FrontierNode {
    State state;
    std::vector<Action> path;
    int64_t h = 0;
  };
  std::vector<FrontierNode> frontier;
  int beam_depth = 0;

  // A*/greedy: open list. `key` is informational (g for A*, h for greedy;
  // both are recomputed on resume); `seq` is the original insertion number
  // and must be preserved for identical tiebreaking.
  struct OpenNode {
    State state;
    std::vector<Action> path;
    int64_t key = 0;
    uint64_t seq = 0;
  };
  std::vector<OpenNode> open;
  uint64_t next_seq = 0;

  // Dedup/closed map: fingerprint -> best g (A*). Beam and greedy keep
  // membership-only sets: they write g = 0 and never read it on resume.
  std::vector<std::pair<Fp128, int64_t>> closed;
};

// Consumer of search snapshots, polled on the BudgetGuard's amortized
// tick (every SearchLimits::check_interval visits; beam polls at its
// level barriers, the only points where its state is a compact frontier).
// WantSnapshot is the cheap frequency gate — building a snapshot copies
// the frontier/open list, so algorithms only build one when it returns
// true. Implementations decide persistence (core/checkpoint.h's file
// sink) or anything else (tests count and cancel).
template <typename State, typename Action>
class CheckpointSink : public CheckpointSinkBase {
 public:
  virtual bool WantSnapshot(uint64_t states_examined) = 0;
  virtual void OnSnapshot(SearchSeed<State, Action> seed) = 0;
};

// Budget knobs. Searches stop (found=false, a resource StopReason) when a
// limit trips; zero-valued optional bounds are unlimited.
struct SearchLimits {
  // Upper bound on states examined (nodes visited, counting IDA/RBFS
  // re-visits, matching the paper's performance measure).
  uint64_t max_states = 10'000'000;
  // Upper bound on solution depth / recursion depth.
  int max_depth = 64;
  // Wall-clock budget for the search call, in milliseconds; 0 = unbounded.
  int64_t deadline_millis = 0;
  // Approximate bound on the algorithm's memory proxy (open+closed size
  // for A*/greedy, frontier+seen for beam, recursion depth for IDA*/RBFS
  // — the same quantity as SearchStats::peak_memory_nodes); 0 = unbounded.
  uint64_t max_memory_nodes = 0;
  // Cooperative cancellation (not owned, may be null). Flip from another
  // thread to stop a running search with StopReason::kCancelled.
  CancelToken* cancel = nullptr;
  // Deadline/cancel polls are amortized: the clock and the token are read
  // once every `check_interval` visits (the counting bounds above are
  // checked on every visit regardless).
  uint32_t check_interval = 16;
  // Checkpoint consumer (not owned, may be null). Polled on the amortized
  // tick above; must be a CheckpointSink<State, Action> instantiated for
  // the problem's state/action types or it resolves to null and is
  // ignored. See SearchSeed for what each algorithm captures.
  CheckpointSinkBase* checkpoint_sink = nullptr;
};

// Shared limit-tripping logic for the search algorithms: one object per
// search call (owned by its SearchContext), consulted once per visited
// state. Owns the amortized deadline/cancel poll.
class BudgetGuard {
 public:
  explicit BudgetGuard(const SearchLimits& limits)
      : limits_(limits),
        poll_(limits.cancel != nullptr || limits.deadline_millis > 0 ||
              limits.checkpoint_sink != nullptr) {
    if (limits_.deadline_millis > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(limits_.deadline_millis);
    }
  }

  // Returns the reason to stop, or nullopt to keep searching. `depth` is
  // the g-value of the state about to be examined; `memory_nodes` the
  // algorithm's current memory proxy. The first call always polls
  // deadline/cancel, so an expired deadline or pre-cancelled token trips
  // immediately.
  std::optional<StopReason> Check(uint64_t states_examined, int64_t depth,
                                  uint64_t memory_nodes) {
    checkpoint_due_ = false;
    if (states_examined >= limits_.max_states) return StopReason::kStates;
    if (depth > limits_.max_depth) return StopReason::kDepth;
    if (limits_.max_memory_nodes > 0 &&
        memory_nodes > limits_.max_memory_nodes) {
      return StopReason::kMemory;
    }
    if (poll_ && ticks_left_-- == 0) {
      ticks_left_ = limits_.check_interval;
      checkpoint_due_ = limits_.checkpoint_sink != nullptr;
      if (limits_.cancel != nullptr && limits_.cancel->cancelled()) {
        return StopReason::kCancelled;
      }
      if (limits_.deadline_millis > 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        return StopReason::kDeadline;
      }
    }
    return std::nullopt;
  }

  // True when the most recent Check hit the amortized tick and a
  // checkpoint sink is installed: the algorithm should offer the sink a
  // snapshot at its next coherent boundary (subject to WantSnapshot).
  bool checkpoint_due() const { return checkpoint_due_; }

 private:
  const SearchLimits& limits_;
  bool poll_;
  bool checkpoint_due_ = false;
  uint32_t ticks_left_ = 0;  // 0 so the very first Check polls
  std::chrono::steady_clock::time_point deadline_;
};

struct SearchStats {
  // Nodes visited, including redundant re-expansions across IDA iterations
  // and RBFS re-descents — the paper's "number of states examined".
  uint64_t states_examined = 0;
  // Successor states produced by Expand.
  uint64_t states_generated = 0;
  // IDA: completed depth-bound iterations; RBFS/A*: unused (0).
  int iterations = 0;
  // A*: peak open+closed entries; IDA/RBFS: peak recursion depth. A proxy
  // for memory footprint (the paper's motivation for dropping plain A*).
  uint64_t peak_memory_nodes = 0;
  // Length of the found path, or -1.
  int solution_cost = -1;
};

template <typename Action>
struct SearchOutcome {
  bool found = false;
  // Why the search returned. kExhausted until something else happens, so
  // an empty-space search reports conclusively; IsResourceStop(stop) means
  // a SearchLimits bound or cancellation tripped (failure is inconclusive).
  StopReason stop = StopReason::kExhausted;
  std::vector<Action> path;
  // Anytime result: the path to the lowest-h state examined so far (the
  // goal path when found) and its remaining heuristic distance. best_h is
  // -1 until the first state is examined. On a resource stop this is the
  // best partial mapping the caller can act on.
  std::vector<Action> best_path;
  int best_h = -1;
  SearchStats stats;
};

}  // namespace tupelo

#endif  // TUPELO_SEARCH_SEARCH_TYPES_H_
