#ifndef TUPELO_HEURISTICS_HEURISTIC_H_
#define TUPELO_HEURISTICS_HEURISTIC_H_

#include <string_view>

#include "relational/database.h"

namespace tupelo::obs {
class MetricRegistry;
}  // namespace tupelo::obs

namespace tupelo {

// A search heuristic h(x): an estimate of the number of transformation
// steps from database state `x` to a fixed target critical instance
// (§3 of the paper). Implementations are constructed around the target and
// must be deterministic and side-effect free; Estimate is called once per
// generated state, so precompute whatever the target allows.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  // Estimated distance (≥ 0) from `state` to the target.
  virtual int Estimate(const Database& state) const = 0;

  // Stable display name ("h1", "cosine", ...).
  virtual std::string_view name() const = 0;

  // Hook for implementations that keep internal counters (caches,
  // kernels) to publish them. Called by the owning problem when metrics
  // are enabled; default is a no-op. `registry` is never null.
  virtual void BindMetrics(obs::MetricRegistry* /*registry*/) {}
};

}  // namespace tupelo

#endif  // TUPELO_HEURISTICS_HEURISTIC_H_
