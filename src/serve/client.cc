#include "serve/client.h"

#include <unistd.h>

#include <chrono>

#include "serve/wire.h"

namespace tupelo::serve {
namespace {

using Clock = std::chrono::steady_clock;

Result<JobStatus> JobFromReply(const obs::JsonValue& reply) {
  const obs::JsonValue* ok = reply.Find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const obs::JsonValue* err = reply.Find("error");
    return Status::Internal(err != nullptr ? err->as_string()
                                           : "malformed server reply");
  }
  const obs::JsonValue* job = reply.Find("job");
  if (job == nullptr || !job->is_object()) {
    return Status::ParseError("server reply carries no job object");
  }
  JobStatus s;
  auto str = [&](std::string_view key) {
    const obs::JsonValue* m = job->Find(key);
    return m != nullptr && m->kind() == obs::JsonValue::Kind::kString
               ? m->as_string()
               : std::string();
  };
  auto num = [&](std::string_view key) -> int64_t {
    const obs::JsonValue* m = job->Find(key);
    return m != nullptr && m->is_number() ? m->as_int() : 0;
  };
  auto dbl = [&](std::string_view key) -> double {
    const obs::JsonValue* m = job->Find(key);
    return m != nullptr && m->is_number() ? m->as_double() : 0.0;
  };
  auto boolean = [&](std::string_view key) {
    const obs::JsonValue* m = job->Find(key);
    return m != nullptr && m->kind() == obs::JsonValue::Kind::kBool &&
           m->as_bool();
  };
  s.id = str("id");
  s.tenant = str("tenant");
  const std::string state = str("state");
  s.state = state == "done"      ? JobState::kDone
            : state == "running" ? JobState::kRunning
                                 : JobState::kQueued;
  s.version = static_cast<uint64_t>(num("version"));
  s.states_examined = static_cast<uint64_t>(num("states_examined"));
  s.best_h = static_cast<int>(num("best_h"));
  s.partial_script = str("partial_script");
  s.found = boolean("found");
  s.verified = boolean("verified");
  s.stop_reason = str("stop_reason");
  s.script = str("script");
  s.queue_millis = dbl("queue_millis");
  s.run_millis = dbl("run_millis");
  s.total_millis = dbl("total_millis");
  s.resumed = boolean("resumed");
  return s;
}

}  // namespace

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  Client client;
  TUPELO_ASSIGN_OR_RETURN(client.fd_, ConnectTo(host, port));
  return client;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<obs::JsonValue> Client::RoundTrip(const obs::JsonValue& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  TUPELO_RETURN_IF_ERROR(WriteFrame(fd_, request));
  return ReadFrame(fd_);
}

Result<SubmitReply> Client::Submit(const JobSpec& spec) {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "submit";
  request["spec"] = SpecToJson(spec);
  TUPELO_ASSIGN_OR_RETURN(obs::JsonValue reply, RoundTrip(request));
  const obs::JsonValue* ok = reply.Find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const obs::JsonValue* err = reply.Find("error");
    return Status::InvalidArgument(err != nullptr ? err->as_string()
                                                  : "malformed server reply");
  }
  SubmitReply out;
  const obs::JsonValue* accepted = reply.Find("accepted");
  out.accepted = accepted != nullptr && accepted->as_bool();
  const obs::JsonValue* job = reply.Find("job");
  if (job != nullptr && job->kind() == obs::JsonValue::Kind::kString) {
    out.job_id = job->as_string();
  }
  const obs::JsonValue* depth = reply.Find("queue_depth");
  if (depth != nullptr && depth->is_number()) {
    out.queue_depth = static_cast<size_t>(depth->as_uint());
  }
  const obs::JsonValue* retry = reply.Find("retry_after_millis");
  if (retry != nullptr && retry->is_number()) {
    out.retry_after_millis = retry->as_int();
  }
  return out;
}

Result<JobStatus> Client::GetStatus(const std::string& job_id) {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "status";
  request["job"] = job_id;
  TUPELO_ASSIGN_OR_RETURN(obs::JsonValue reply, RoundTrip(request));
  return JobFromReply(reply);
}

Result<JobStatus> Client::Stream(const std::string& job_id,
                                 uint64_t after_version,
                                 int64_t timeout_millis) {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "stream";
  request["job"] = job_id;
  request["after_version"] = after_version;
  request["timeout_millis"] = timeout_millis;
  TUPELO_ASSIGN_OR_RETURN(obs::JsonValue reply, RoundTrip(request));
  return JobFromReply(reply);
}

Result<JobStatus> Client::AwaitTerminal(const std::string& job_id,
                                        int64_t deadline_millis) {
  Clock::time_point start = Clock::now();
  uint64_t version = 0;
  for (;;) {
    double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    int64_t left = deadline_millis - static_cast<int64_t>(elapsed);
    if (left <= 0) {
      return Status::OutOfRange("job " + job_id +
                                " still running at client deadline");
    }
    TUPELO_ASSIGN_OR_RETURN(
        JobStatus s, Stream(job_id, version, std::min<int64_t>(left, 500)));
    if (s.state == JobState::kDone) return s;
    version = s.version;
  }
}

Result<bool> Client::Cancel(const std::string& job_id) {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "cancel";
  request["job"] = job_id;
  TUPELO_ASSIGN_OR_RETURN(obs::JsonValue reply, RoundTrip(request));
  const obs::JsonValue* cancelled = reply.Find("cancelled");
  return cancelled != nullptr && cancelled->as_bool();
}

Result<obs::JsonValue> Client::Metrics() {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "metrics";
  return RoundTrip(request);
}

Status Client::Ping() {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "ping";
  return RoundTrip(request).status();
}

Status Client::RequestShutdown() {
  obs::JsonValue request = obs::JsonValue::Object();
  request["op"] = "shutdown";
  return RoundTrip(request).status();
}

}  // namespace tupelo::serve
