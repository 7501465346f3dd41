#include "runtime/supervisor.h"

#include <algorithm>
#include <utility>

namespace tupelo::runtime {

Supervisor::Supervisor(const SupervisorConfig& config,
                       obs::MetricRegistry* metrics, obs::TraceSession* trace)
    : config_(config), metrics_(metrics), trace_(trace) {
  watchdog_ = std::thread([this] { Loop(); });
}

Supervisor::~Supervisor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  watchdog_.join();
}

int64_t Supervisor::Watch(WatchSpec spec) {
  if (spec.heartbeat == nullptr || spec.preempt == nullptr) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Watched w;
  w.id = next_id_++;
  w.last_beats = spec.heartbeat->beats.load(std::memory_order_relaxed);
  w.last_states = spec.heartbeat->states.load(std::memory_order_relaxed);
  w.last_progress = std::chrono::steady_clock::now();
  w.spec = std::move(spec);
  watches_.push_back(std::move(w));
  if (metrics_ != nullptr) metrics_->GetCounter("supervisor.watches").Increment();
  return watches_.back().id;
}

void Supervisor::Unwatch(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [id](const Watched& w) { return w.id == id; }),
                 watches_.end());
}

bool Supervisor::stalled(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Watched& w : watches_) {
    if (w.id == id) return w.stalled;
  }
  return false;
}

void Supervisor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto tick = std::chrono::milliseconds(
      config_.tick_millis > 0 ? config_.tick_millis : 1);
  while (!shutdown_) {
    cv_.wait_for(lock, tick);
    if (shutdown_) return;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("supervisor.ticks").Increment();
    }
    TickLocked(std::chrono::steady_clock::now());
  }
}

void Supervisor::TickLocked(std::chrono::steady_clock::time_point now) {
  const auto window = std::chrono::milliseconds(config_.stall_window_millis);
  for (Watched& w : watches_) {
    if (w.stalled) continue;  // already handled
    const HeartbeatSlot* hb = w.spec.heartbeat;
    const uint64_t beats = hb->beats.load(std::memory_order_relaxed);
    const uint64_t states = hb->states.load(std::memory_order_relaxed);

    // Liveness: any movement of the beat or progress counters resets the
    // stall clock; silence past the window preempts the rung.
    if (beats != w.last_beats || states != w.last_states) {
      w.last_beats = beats;
      w.last_states = states;
      w.last_progress = now;
      continue;
    }
    if (now - w.last_progress >= window) {
      w.stalled = true;
      w.spec.preempt->Cancel();
      stall_preemptions_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        metrics_->GetCounter("supervisor.stall_preemptions").Increment();
      }
      if (trace_ != nullptr) {
        trace_->EmitInstant(obs::TraceCategory::kFault, "supervisor.stall",
                            "beats", static_cast<int64_t>(beats), "states",
                            static_cast<int64_t>(states));
      }
    }
  }
}

}  // namespace tupelo::runtime
