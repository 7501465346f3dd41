// The forwarding Problem used by the traced run. It wraps a real
// MappingProblem, satisfies the search duck type of search/search_types.h
// and times every call the search templates make into the problem, so
// the layer split is measured from outside the program: search self time
// is the search wall minus these children. Each timed call is also
// recorded as a span in an obs::TraceSession (the Chrome export that
// tools/trace_report reads); the program's own tracing stays off.
#ifndef PERFBENCH_HARNESS_TRACED_PROBLEM_H_
#define PERFBENCH_HARNESS_TRACED_PROBLEM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/mapping_problem.h"
#include "harness/common.h"
#include "obs/trace.h"

namespace perfbench {

// Busy time and work counts of the problem calls one search made.
struct AdapterTotals {
  uint64_t expand_ns = 0;
  uint64_t expand_calls = 0;
  uint64_t successors = 0;
  uint64_t estimate_ns = 0;
  uint64_t estimates = 0;  // states estimated, batched or not
  uint64_t goal_ns = 0;
  uint64_t goal_calls = 0;
};

class TracedProblem {
 public:
  using State = tupelo::Database;
  using Action = tupelo::Op;
  using SuccessorT = tupelo::MappingProblem::SuccessorT;

  // `samples` (nullable) receives a copy of every `sample_every`-th
  // expanded state, up to `max_samples`, for the replay measurements.
  TracedProblem(const tupelo::MappingProblem& inner,
                tupelo::obs::TraceSession* trace, AdapterTotals* totals,
                std::vector<State>* samples, uint64_t sample_every,
                size_t max_samples)
      : inner_(inner),
        trace_(trace),
        totals_(totals),
        samples_(samples),
        sample_every_(sample_every == 0 ? 1 : sample_every),
        max_samples_(max_samples) {}

  const State& initial_state() const { return inner_.initial_state(); }

  bool IsGoal(const State& s) const {
    Span span(this, tupelo::obs::TraceCategory::kSearch, "bench.is_goal",
              &totals_->goal_ns);
    ++totals_->goal_calls;
    return inner_.IsGoal(s);
  }

  std::vector<SuccessorT> Expand(const State& s) const {
    if (samples_ != nullptr && samples_->size() < max_samples_ &&
        totals_->expand_calls % sample_every_ == 0) {
      samples_->push_back(s);
    }
    ++totals_->expand_calls;
    Span span(this, tupelo::obs::TraceCategory::kExpand, "bench.expand",
              &totals_->expand_ns);
    std::vector<SuccessorT> out = inner_.Expand(s);
    totals_->successors += out.size();
    return out;
  }

  int EstimateCost(const State& s) const {
    Span span(this, tupelo::obs::TraceCategory::kHeuristic, "bench.estimate",
              &totals_->estimate_ns);
    ++totals_->estimates;
    return inner_.EstimateCost(s);
  }

  void EstimateCostBatch(std::span<const State* const> states,
                         std::span<int> out) const {
    Span span(this, tupelo::obs::TraceCategory::kHeuristic,
              "bench.estimate_batch", &totals_->estimate_ns);
    totals_->estimates += states.size();
    inner_.EstimateCostBatch(states, out);
  }

  // StateKey/StateKey128 run once per successor and cost a few
  // nanoseconds against a cached fingerprint, so timing each call would
  // mostly measure the clock: they stay in search self time and are priced
  // by the replay in search_bench.cc.
  uint64_t StateKey(const State& s) const { return inner_.StateKey(s); }
  tupelo::Fp128 StateKey128(const State& s) const {
    return inner_.StateKey128(s);
  }
  size_t AuxMemoryNodes() const { return inner_.AuxMemoryNodes(); }

 private:
  // Times one forwarded call into `sink` and brackets it with B/E events.
  class Span {
   public:
    Span(const TracedProblem* owner, tupelo::obs::TraceCategory cat,
         const char* name, uint64_t* sink)
        : owner_(owner), cat_(cat), name_(name), sink_(sink) {
      if (owner_->trace_ != nullptr) owner_->trace_->EmitBegin(cat_, name_);
      start_ = Clock::now();
    }
    ~Span() {
      *sink_ += NanosBetween(start_, Clock::now());
      if (owner_->trace_ != nullptr) owner_->trace_->EmitEnd(cat_, name_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const TracedProblem* owner_;
    tupelo::obs::TraceCategory cat_;
    const char* name_;
    uint64_t* sink_;
    Clock::time_point start_;
  };

  const tupelo::MappingProblem& inner_;
  tupelo::obs::TraceSession* trace_;
  AdapterTotals* totals_;
  std::vector<State>* samples_;
  uint64_t sample_every_;
  size_t max_samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACED_PROBLEM_H_
