// Shared plumbing for the benchmark harness: the clock, the run
// arguments, process memory readings and the raw-result document the
// harness hands back to perfbench/run.py (which does all of the metric
// arithmetic, so it can be unit-tested without a build).
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/json_writer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}
inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the run may write into (journal, trace export); inside
  // the checkout's build tree.
  std::string work_dir;
  // The tupelo_serve binary (deepweb_batch's traced run).
  std::string serve_bin;
};

// Peak resident set size of a process in KiB (VmHWM from /proc), 0 when
// unreadable. `pid` 0 reads the calling process.
uint64_t PeakRssKib(int pid = 0);

// The raw result every workload fills in. `failures` lists one object
// per failed operation with its cause; run.py counts them into
// `failed` and prints them.
struct RawResult {
  tupelo::obs::JsonValue doc = tupelo::obs::JsonValue::Object();
  uint64_t attempted = 0;
  tupelo::obs::JsonValue failures = tupelo::obs::JsonValue::Array();

  void Fail(const std::string& what, const std::string& cause) {
    tupelo::obs::JsonValue f = tupelo::obs::JsonValue::Object();
    f["what"] = what;
    f["cause"] = cause;
    failures.Append(std::move(f));
  }
};

int RunSearchWorkload(const RunArgs& args, RawResult* out);
// The serve layer's open-loop run, part of deepweb_batch's traced run:
// fills `doc` with the schedule and per-job records, counts the jobs into
// `attempted`.
int RunServeSegment(const RunArgs& args, tupelo::obs::JsonValue* doc,
                    uint64_t* attempted);
int RunApplyWorkload(const RunArgs& args, RawResult* out);
// Adapter-versus-Discover agreement on every search algorithm; returns
// the number of mismatches (0 = pass) and prints one line per problem.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
