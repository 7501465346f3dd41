// The serve layer: an open-loop job stream into a spawned tupelo_serve,
// run as part of deepweb_batch's traced run (its numbers are per-layer
// metrics; see perfbench/README.md for why they are not gated).
//
// One generator thread sends every job at its due time on a fixed
// schedule, whatever the server is doing, and each job is timed from that
// due time, so a stall is charged to every job it delays. Three watcher
// threads long-poll the accepted jobs, oldest first, and stamp when the
// client sees each one finish. With the generator that is four client
// connections and four threads; the server runs two workers and a
// one-thread search pool, leaving a core for the connection threads. No
// faults are injected.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "harness/common.h"
#include "harness/problems.h"
#include "fira/parser.h"
#include "heuristics/heuristic_factory.h"
#include "obs/trace.h"
#include "relational/io.h"
#include "serve/client.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = tupelo::obs;
using obs::JsonValue;
using tupelo::Database;

// Arrival-rate steps: jobs per second and seconds. The first is an
// unmeasured lead-in, the second the nominal rate (well under capacity on
// a 4-core machine, and >= 1000 jobs), the last at or above capacity.
struct Step {
  double rate;
  double seconds;
  bool nominal;
  bool warmup;
};
constexpr Step kSteps[] = {{100, 2, false, true},
                           {100, 11, true, false},
                           {240, 2, false, false},
                           {900, 3, false, false}};
constexpr double kBeamShare = 0.15;   // jobs that request the beam rung
constexpr double kSynthShare = 0.2;   // jobs from the synth_wide generator
constexpr int kWatchers = 3;

struct JobKind {
  bool synth = false;
  std::string id;
  tupelo::serve::JobSpec spec;
  std::shared_ptr<const Database> source, target;
};

// Discovery jobs drawn from the deepweb_batch (BAMM) and synth_wide
// generators, in that order: the problems a job spec can carry (no λ
// correspondences), once per instance pair and heuristic, on a small state
// budget.
std::vector<JobKind> JobKinds(uint64_t seed) {
  std::vector<JobKind> kinds;
  auto add = [&](const Problem& p) {
    if (!p.correspondences.empty() ||
        p.algorithm != tupelo::SearchAlgorithm::kIda) {
      return;
    }
    JobKind k;
    k.synth = p.truth == nullptr;
    k.id = p.id;
    k.spec.tenant = "bench";
    k.spec.source_tdb = tupelo::WriteTdb(*p.source);
    k.spec.target_tdb = tupelo::WriteTdb(*p.target);
    k.spec.heuristic = std::string(tupelo::HeuristicKindName(p.heuristic));
    k.spec.max_states = 1500;
    k.source = p.source;
    k.target = p.target;
    kinds.push_back(std::move(k));
  };
  ProblemSet deepweb = MakeDeepwebBatch(seed);
  for (const Problem& p : deepweb.problems) {
    if (p.truth != nullptr && (p.heuristic == tupelo::HeuristicKind::kH1 ||
                               p.heuristic == tupelo::HeuristicKind::kEuclideanNorm)) {
      add(p);
    }
  }
  ProblemSet synth = MakeSynthWide(seed);
  for (const Problem& p : synth.problems) {
    if (p.heuristic == tupelo::HeuristicKind::kH1 && p.max_depth <= 16) add(p);
  }
  return kinds;
}

struct Server {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;
};

tupelo::Result<Server> Spawn(const std::string& bin,
                             const std::string& journal) {
  fs::remove_all(journal);
  fs::create_directories(journal);
  int fds[2];
  if (::pipe(fds) != 0) return tupelo::Status::Internal("pipe failed");
  const std::vector<std::string> argv_s = {
      bin, "--journal-dir=" + journal, "--port=0", "--workers=2",
      "--pool-threads=1"};
  pid_t pid = ::fork();
  if (pid < 0) return tupelo::Status::Internal("fork failed");
  if (pid == 0) {
    // The daemon must not outlive the benchmark, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string banner;
  char c;
  while (banner.find('\n') == std::string::npos) {
    if (::read(fds[0], &c, 1) <= 0) {
      ::close(fds[0]);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return tupelo::Status::Internal("tupelo_serve exited before listening");
    }
    banner.push_back(c);
  }
  unsigned port = 0;
  if (std::sscanf(banner.c_str(), "listening %u", &port) != 1) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return tupelo::Status::Internal("bad banner: " + banner);
  }
  return Server{pid, fds[0], static_cast<uint16_t>(port)};
}

// Graceful stop (SIGTERM), escalating to SIGKILL after five seconds.
void Stop(Server* s) {
  if (s->pid <= 0) return;
  ::kill(s->pid, SIGTERM);
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(s->pid, &status, WNOHANG) == s->pid) {
      s->pid = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (s->pid > 0) {
    ::kill(s->pid, SIGKILL);
    ::waitpid(s->pid, nullptr, 0);
    s->pid = -1;
  }
  ::close(s->stdout_fd);
}

struct JobRecord {
  size_t kind = 0;
  size_t step = 0;
  bool beam = false;
  double due_ms = 0, sent_ms = 0, ack_ms = -1, done_ms = -1;
  bool accepted = false;
  std::string error;  // transport or protocol failure
  std::string job_id;
  uint64_t queue_depth = 0;
  uint64_t outstanding = 0;  // accepted, not yet seen finished, at send
  uint64_t requests = 0;
  tupelo::serve::JobStatus status;
};

class OpenLoop {
 public:
  OpenLoop(uint16_t port, const std::vector<JobKind>& kinds,
           std::vector<JobRecord>* jobs, obs::TraceSession* trace)
      : port_(port), kinds_(kinds), jobs_(jobs), trace_(trace) {}

  // Sends every job at its due time, then waits for the watchers.
  std::string Run(Clock::time_point t0) {
    auto sender = tupelo::serve::Client::Connect("127.0.0.1", port_);
    if (!sender.ok()) return sender.status().ToString();
    std::vector<std::thread> watchers;
    for (int i = 0; i < kWatchers; ++i) {
      watchers.emplace_back([this, t0] { Watch(t0); });
    }
    for (JobRecord& job : *jobs_) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(job.due_ms));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      job.sent_ms = MillisBetween(t0, sent);
      {
        std::lock_guard<std::mutex> lock(mu_);
        job.outstanding = outstanding_;
      }
      tupelo::Result<tupelo::serve::SubmitReply> reply =
          tupelo::Status::Internal("not sent");
      {
        obs::TraceSpan span(trace_, obs::TraceCategory::kDriver,
                            "bench.submit");
        reply = sender->Submit(job.beam ? BeamSpec(job.kind)
                                        : kinds_[job.kind].spec);
      }
      job.ack_ms = MillisSince(t0);
      job.requests = 1;
      if (!reply.ok()) {
        job.error = "submit failed: " + reply.status().ToString();
        continue;
      }
      job.accepted = reply->accepted;
      job.queue_depth = reply->queue_depth;
      if (job.accepted) {
        job.job_id = reply->job_id;
        std::lock_guard<std::mutex> lock(mu_);
        ++outstanding_;
        pending_.push_back(&job);
        cv_.notify_one();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sending_done_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : watchers) t.join();
    return "";
  }

 private:
  tupelo::serve::JobSpec BeamSpec(size_t kind) const {
    tupelo::serve::JobSpec spec = kinds_[kind].spec;
    spec.algorithm = "beam";
    return spec;
  }

  void Watch(Clock::time_point t0) {
    auto client = tupelo::serve::Client::Connect("127.0.0.1", port_);
    for (;;) {
      JobRecord* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !pending_.empty() || sending_done_; });
        if (pending_.empty()) return;
        job = pending_.front();
        pending_.pop_front();
      }
      if (!client.ok()) {
        job->error = "watcher connect failed: " + client.status().ToString();
      } else {
        // Long-poll until terminal: a version no job reaches makes the
        // server answer only when the job finishes (or the poll times out).
        constexpr uint64_t kTerminalOnly = uint64_t{1} << 62;
        const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
        for (;;) {
          tupelo::Result<tupelo::serve::JobStatus> st =
              tupelo::Status::Internal("not polled");
          {
            obs::TraceSpan span(trace_, obs::TraceCategory::kDriver,
                                "bench.stream");
            st = client->Stream(job->job_id, kTerminalOnly, 1000);
          }
          ++job->requests;
          if (!st.ok()) {
            job->error = "stream failed: " + st.status().ToString();
            break;
          }
          if (st->state == tupelo::serve::JobState::kDone) {
            job->done_ms = MillisSince(t0);
            job->status = std::move(st).value();
            break;
          }
          if (Clock::now() > give_up) {
            job->error = "never reached a terminal state";
            break;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
  }

  uint16_t port_;
  const std::vector<JobKind>& kinds_;
  std::vector<JobRecord>* jobs_;
  obs::TraceSession* trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<JobRecord*> pending_;
  uint64_t outstanding_ = 0;
  bool sending_done_ = false;
};

// The returned script must parse and verify on the client.
std::string CheckJob(const JobKind& kind, const tupelo::serve::JobStatus& s) {
  if (s.stop_reason == "error") return "job error: " + s.partial_script;
  if (!s.found) return "";  // a budget or deadline stop is not a failure
  if (!s.verified) return "server reports the mapping unverified";
  tupelo::Result<tupelo::MappingExpression> m =
      tupelo::ParseExpression(s.script);
  if (!m.ok()) return "script does not parse: " + m.status().ToString();
  tupelo::Result<Database> out = m->Apply(*kind.source);
  if (!out.ok()) return "script replay failed: " + out.status().ToString();
  if (!out->Contains(*kind.target)) return "script does not reach the target";
  return "";
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Rewrites the journal's real files with AtomicWriteFile into a scratch
// directory: the cost each job pays per journal write.
JsonValue PriceJournalWrites(const std::string& journal,
                             const std::string& probe) {
  fs::remove_all(probe);
  fs::create_directories(probe);
  uint64_t ns = 0, writes = 0, bytes = 0;
  for (const auto& entry : fs::directory_iterator(journal)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".job" && ext != ".tck" && ext != ".done") continue;
    const std::string contents = ReadFile(entry.path());
    const std::string dest = (fs::path(probe) / entry.path().filename()).string();
    Clock::time_point t0 = Clock::now();
    tupelo::Status st = tupelo::AtomicWriteFile(dest, contents);
    ns += NanosBetween(t0, Clock::now());
    if (st.ok()) {
      ++writes;
      bytes += contents.size();
    }
  }
  fs::remove_all(probe);
  JsonValue j = JsonValue::Object();
  j["write_ns"] = ns;
  j["writes"] = writes;
  j["bytes"] = bytes;
  return j;
}

}  // namespace

int RunServeSegment(const RunArgs& args, JsonValue* doc, uint64_t* attempted) {
  const std::string journal = args.work_dir + "/serve_journal";
  const std::vector<JobKind> kinds = JobKinds(args.seed);
  tupelo::Result<Server> spawned = Spawn(args.serve_bin, journal);
  if (!spawned.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spawned.status().ToString().c_str());
    return 1;
  }
  Server server = *spawned;

  // The schedule: evenly spaced arrivals within each step.
  std::mt19937_64 rng(args.seed ^ 0x5e7e5e7eull);
  const size_t bamm_kinds = static_cast<size_t>(std::count_if(
      kinds.begin(), kinds.end(), [](const JobKind& k) { return !k.synth; }));
  std::vector<JobRecord> jobs;
  JsonValue steps = JsonValue::Array();
  double offset_ms = 50.0;
  for (const Step& st : kSteps) {
    const double rate = st.rate;
    const double span_ms = st.seconds * 1e3;
    const size_t n = static_cast<size_t>(rate * span_ms / 1e3);
    const size_t index = steps.size();
    for (size_t j = 0; j < n; ++j) {
      JobRecord job;
      const bool synth = static_cast<double>(rng() % 1000) < kSynthShare * 1000;
      job.kind = synth ? bamm_kinds + rng() % (kinds.size() - bamm_kinds)
                       : rng() % bamm_kinds;
      // Beam jobs come from the BAMM kinds: on synth_wide inputs one beam
      // job costs as much as twenty others and would own the tail.
      job.beam = !synth && static_cast<double>(rng() % 1000) < kBeamShare * 1000;
      job.step = index;
      job.due_ms = offset_ms + 1e3 * static_cast<double>(j) / rate;
      jobs.push_back(std::move(job));
    }
    JsonValue step = JsonValue::Object();
    step["rate"] = rate;
    step["start_ms"] = offset_ms;
    step["end_ms"] = offset_ms + span_ms;
    step["nominal"] = st.nominal;
    step["warmup"] = st.warmup;
    steps.Append(std::move(step));
    offset_ms += span_ms;
  }
  (*doc)["steps"] = std::move(steps);

  obs::TraceSession session(1024);
  OpenLoop loop(server.port, kinds, &jobs, &session);
  const Clock::time_point t0 = Clock::now();
  std::string err = loop.Run(t0);

  JsonValue server_metrics = JsonValue::Object();
  if (auto c = tupelo::serve::Client::Connect("127.0.0.1", server.port); c.ok()) {
    if (auto m = c->Metrics(); m.ok()) server_metrics = std::move(m).value();
  }
  (*doc)["server_metrics"] = std::move(server_metrics);
  (*doc)["peak_rss_kib"] = PeakRssKib(server.pid);
  Stop(&server);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 1;
  }

  // run.py classifies the failures (perfbench/metrics.py, JobFailure).
  JsonValue records = JsonValue::Array();
  for (const JobRecord& job : jobs) {
    ++*attempted;
    const JobKind& kind = kinds[job.kind];
    JsonValue r = JsonValue::Object();
    r["kind"] = kind.id + (job.beam ? " (beam)" : "");
    r["step"] = static_cast<uint64_t>(job.step);
    r["due_ms"] = job.due_ms;
    r["sent_ms"] = job.sent_ms;
    r["ack_ms"] = job.ack_ms;
    r["done_ms"] = job.done_ms;
    r["accepted"] = job.accepted;
    r["error"] = job.error;
    r["check"] = job.accepted && job.done_ms >= 0
                     ? CheckJob(kind, job.status)
                     : std::string();
    r["queue_depth"] = job.queue_depth;
    r["outstanding"] = job.outstanding;
    r["requests"] = job.requests;
    r["queue_ms"] = job.status.queue_millis;
    r["run_ms"] = job.status.run_millis;
    r["states"] = job.status.states_examined;
    r["stop"] = job.status.stop_reason;
    records.Append(std::move(r));
  }
  (*doc)["jobs"] = std::move(records);
  (*doc)["journal"] =
      PriceJournalWrites(journal, args.work_dir + "/journal_probe");
  session.WriteChromeJson(args.work_dir + "/serve.trace.json");
  fs::remove_all(journal);
  return 0;
}

}  // namespace perfbench
