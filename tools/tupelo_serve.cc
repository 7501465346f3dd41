// tupelo_serve — the discovery-as-a-service daemon.
//
// Usage:
//   tupelo_serve --journal-dir=DIR [--port=N] [--workers=N]
//                [--queue-limit=N] [--pool-threads=N] [--fair-states=N]
//                [--default-deadline-ms=N] [--max-deadline-ms=N]
//                [--checkpoint-interval=N] [--checkpoint-keep=N]
//                [--trace=trace.json]
//
// An unknown flag or a malformed numeric value (a sign, trailing junk, an
// overflow, a port above 65535, zero workers or a zero deadline) prints
// the usage text and exits 2 before anything is bound.
//
// Binds 127.0.0.1:<port> (0 = ephemeral) and prints "listening <port>" on
// stdout once ready — scripts scrape that line. Speaks the framed-JSON
// protocol documented in docs/SERVING.md. On boot it recovers the journal
// directory: stale `*.tmp` files are swept, finished jobs become servable
// terminal records, and unfinished jobs re-enter the queue with resume —
// so kill -9 mid-campaign loses no accepted work.
//
// SIGINT/SIGTERM trigger graceful shutdown: stop accepting, cancel the
// root CancelToken (running searches stop at their next budget poll,
// their last checkpoint already durable), join all threads, flush the
// trace, exit 0. A job preempted this way resumes on the next boot.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

// Prints the usage text, preceded by the rejected flag when there is one,
// and returns the usage exit code.
int Usage(std::string_view bad_flag = {}) {
  if (!bad_flag.empty()) {
    std::fprintf(stderr, "tupelo_serve: invalid flag '%.*s'\n",
                 static_cast<int>(bad_flag.size()), bad_flag.data());
  }
  std::fprintf(stderr,
               "usage: tupelo_serve --journal-dir=DIR [--port=N] "
               "[--workers=N] [--queue-limit=N] [--pool-threads=N] "
               "[--fair-states=N] [--default-deadline-ms=N] "
               "[--max-deadline-ms=N] [--checkpoint-interval=N] "
               "[--checkpoint-keep=N] [--trace=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tupelo;

  serve::ServerConfig config;
  serve::JobManagerConfig& jobs = config.jobs;
  jobs.journal_dir = "serve_journal";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool ok = true;
    if (arg.starts_with("--journal-dir=")) {
      jobs.journal_dir = arg.substr(14);
    } else if (arg.starts_with("--trace=")) {
      trace_path = arg.substr(8);
    } else if (arg == "--help") {
      return Usage();
    } else if (arg.starts_with("--port=")) {
      ok = ParseFlag(arg, "--port=", &config.port);
    } else if (arg.starts_with("--workers=")) {
      ok = ParseFlag(arg, "--workers=", &jobs.workers, 1);
    } else if (arg.starts_with("--queue-limit=")) {
      ok = ParseFlag(arg, "--queue-limit=", &jobs.queue_limit);
    } else if (arg.starts_with("--pool-threads=")) {
      ok = ParseFlag(arg, "--pool-threads=", &jobs.pool_threads);
    } else if (arg.starts_with("--fair-states=")) {
      ok = ParseFlag(arg, "--fair-states=", &jobs.fair_states_per_job);
    } else if (arg.starts_with("--default-deadline-ms=")) {
      ok = ParseFlag(arg, "--default-deadline-ms=",
                     &jobs.default_deadline_millis, 1);
    } else if (arg.starts_with("--max-deadline-ms=")) {
      ok = ParseFlag(arg, "--max-deadline-ms=", &jobs.max_deadline_millis, 1);
    } else if (arg.starts_with("--checkpoint-interval=")) {
      ok = ParseFlag(arg, "--checkpoint-interval=",
                     &jobs.checkpoint_interval_states);
    } else if (arg.starts_with("--checkpoint-keep=")) {
      ok = ParseFlag(arg, "--checkpoint-keep=", &jobs.checkpoint_keep);
    } else {
      ok = false;
    }
    if (!ok) return Usage(arg);
  }

  obs::MetricRegistry metrics;
  jobs.metrics = &metrics;
  std::unique_ptr<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceSession>();
    jobs.trace = trace.get();
  }

  serve::Server server(std::move(config));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tupelo_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  while (g_stop == 0 && !server.stop_requested()) {
    struct timespec ts = {0, 20 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Shutdown();

  if (trace != nullptr && !trace->WriteChromeJson(trace_path)) {
    std::fprintf(stderr, "tupelo_serve: cannot write trace to %s\n",
                 trace_path.c_str());
  }
  std::printf("shutdown clean (recovered=%llu)\n",
              static_cast<unsigned long long>(server.jobs().jobs_recovered()));
  return 0;
}
