#include "net/server.h"

#include <sys/socket.h>

#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"
#include "util/timer.h"

namespace veritas {
namespace net {

namespace {

/// A boolean field's value. Returning a std::string (not assigning a
/// literal into the map) also keeps GCC 12's -O3 -Wrestrict false positive
/// out of the field assignments.
std::string Flag(bool on) { return on ? "1" : "0"; }

/// The structured view of a terminal SessionReport a client needs to decide
/// completed / typed-error / resubmit. Times travel with fixed precision —
/// they are diagnostics, not inputs to any bit-exactness check.
void FillReportFields(const SessionReport& report, NetResponse* response) {
  response->fields["outcome"] = SessionOutcomeName(report.outcome);
  response->fields["session_code"] = StatusCodeName(report.status.code());
  response->fields["session_message"] = report.status.message();
  response->fields["resumed"] = Flag(report.resumed);
  response->fields["recovered"] = Flag(report.recovered);
  response->fields["num_validated"] = std::to_string(report.num_validated);
  response->fields["rounds"] = std::to_string(report.rounds);
  response->fields["queue_wait_seconds"] =
      FormatDouble(report.queue_wait_seconds, 6);
  response->fields["run_seconds"] = FormatDouble(report.run_seconds, 6);
}

}  // namespace

NetServer::NetServer(SessionSupervisor* supervisor, NetServerOptions options)
    : supervisor_(supervisor), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  VERITAS_ASSIGN_OR_RETURN(ListenSocket listener, Listen(options_.address));
  listen_fd_ = listener.fd;
  bound_ = listener.address;
  accept_thread_ = std::thread(&NetServer::AcceptLoop, this);
  started_ = true;
  return Status::OK();
}

void NetServer::RequestDrain() {
  draining_.store(true, std::memory_order_relaxed);
  supervisor_->BeginDrain();
}

void NetServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Wake the accept thread's poll; it closes the fd itself on exit.
  const int fd = listen_fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Handler> handlers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    handlers.swap(handlers_);
  }
  for (Handler& handler : handlers) {
    if (handler.thread.joinable()) handler.thread.join();
  }
  started_ = false;
}

void NetServer::ReapFinished() {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::AcceptLoop() {
  auto& reg = MetricsRegistry::Global();
  static Counter* accepted = reg.GetCounter("net.accepted");
  static Counter* shed = reg.GetCounter("net.shed");
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto fd = Accept(listen_fd_.load(std::memory_order_relaxed),
                     Deadline::AfterMillis(options_.idle_poll_ms));
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kDeadlineExceeded) continue;
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;  // Transient accept failure; keep serving.
    }
    accepted->Add(1);
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinished();
    // Overload shedding, mirroring the supervisor's bounded queue: within
    // capacity a connection gets a long-lived handler; up to 2x capacity it
    // gets a short-lived handler that answers one request with a typed
    // ResourceExhausted; past that it is closed outright (the client sees
    // Unavailable — still a typed outcome, never a hang).
    const bool over = handlers_.size() >= options_.max_connections;
    if (handlers_.size() >= 2 * options_.max_connections) {
      shed->Add(1);
      CloseFd(*fd);
      continue;
    }
    if (over) shed->Add(1);
    Handler handler;
    handler.done = std::make_shared<std::atomic<bool>>(false);
    auto done = handler.done;
    const int conn_fd = *fd;
    handler.thread = std::thread([this, conn_fd, over, done] {
      if (over) {
        HandleShed(conn_fd);
      } else {
        HandleConnection(conn_fd);
      }
      done->store(true, std::memory_order_release);
    });
    handlers_.push_back(std::move(handler));
  }
  CloseFd(listen_fd_.exchange(-1, std::memory_order_relaxed));
}

void NetServer::HandleShed(int fd) {
  // Read the request so the typed rejection can echo its id (and so closing
  // does not RST-discard the response while the request is still in flight).
  NetResponse response;
  const Deadline deadline = Deadline::AfterMillis(options_.request_timeout_ms);
  auto frame = RecvFrame(fd, deadline, options_.max_payload);
  if (frame.ok() && frame->type == FrameType::kRequest) {
    if (auto request = DecodeNetRequest(frame->payload); request.ok()) {
      response.request_id = request->request_id;
    }
  }
  response.status = Status::ResourceExhausted(
      "server connection limit (" + std::to_string(options_.max_connections) +
      ") reached; request shed");
  SendFrame(fd, FrameType::kResponse, EncodeNetResponse(response), deadline);
  CloseFd(fd);
}

void NetServer::HandleConnection(int fd) {
  auto& reg = MetricsRegistry::Global();
  static Counter* requests = reg.GetCounter("net.requests");
  static Histogram* latency = reg.GetHistogram("net.request_seconds");
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Idle-poll between requests so a shutdown is noticed promptly and a
    // deadline can never fire mid-header (which would desynchronize the
    // stream for a connection that was merely quiet).
    const Status ready =
        WaitReadable(fd, Deadline::AfterMillis(options_.idle_poll_ms));
    if (!ready.ok()) {
      if (ready.code() == StatusCode::kDeadlineExceeded) continue;
      break;
    }
    auto frame = RecvFrame(fd, Deadline::AfterMillis(options_.request_timeout_ms),
                           options_.max_payload);
    // Peer closed, stalled past the budget, or sent garbage (counted in
    // net.frames_corrupt): the stream is unusable either way.
    if (!frame.ok()) break;
    if (frame->type != FrameType::kRequest) break;
    Timer timer;
    NetResponse response;
    if (auto request = DecodeNetRequest(frame->payload); request.ok()) {
      response = Dispatch(*request);
    } else {
      response.status = request.status();
    }
    requests->Add(1);
    latency->Observe(timer.ElapsedSeconds());
    if (!SendFrame(fd, FrameType::kResponse, EncodeNetResponse(response),
                   Deadline::AfterMillis(options_.request_timeout_ms))
             .ok()) {
      break;
    }
  }
  CloseFd(fd);
}

NetResponse NetServer::Dispatch(const NetRequest& request) {
  NetResponse response;
  response.request_id = request.request_id;
  switch (request.type) {
    case RequestType::kHealth: {
      response.fields["running"] =
          std::to_string(supervisor_->running_sessions());
      response.fields["queued"] =
          std::to_string(supervisor_->queued_sessions());
      response.fields["draining"] = Flag(draining());
      response.fields["ready"] = Flag(!draining());
      return response;
    }
    case RequestType::kSubmit: {
      // Idempotency: the request id IS the session id, so a blind re-send
      // after a connection failure lands in one of three safe cases —
      // already active, already terminal (answer from the report log), or
      // genuinely new (admit).
      if (supervisor_->IsActive(request.request_id)) {
        response.fields["state"] = "active";
        response.fields["deduped"] = Flag(true);
        return response;
      }
      SessionReport report;
      if (supervisor_->FindReport(request.request_id, &report)) {
        response.fields["state"] = "done";
        response.fields["deduped"] = Flag(true);
        FillReportFields(report, &response);
        return response;
      }
      const Status admitted = supervisor_->Submit(request.spec);
      if (admitted.ok()) {
        response.fields["state"] = "queued";
        return response;
      }
      // Lost the race against an identical concurrent submit: answer
      // "active" instead of surfacing the duplicate error the supervisor
      // (correctly) raises for non-idempotent callers.
      if (admitted.code() == StatusCode::kInvalidArgument &&
          supervisor_->IsActive(request.request_id)) {
        response.fields["state"] = "active";
        response.fields["deduped"] = Flag(true);
        return response;
      }
      response.status = admitted;  // Typed shed / drain / validation error.
      return response;
    }
    case RequestType::kReport: {
      if (supervisor_->IsActive(request.request_id)) {
        response.fields["state"] = "active";
        return response;
      }
      SessionReport report;
      if (supervisor_->FindReport(request.request_id, &report)) {
        response.fields["state"] = "done";
        FillReportFields(report, &response);
        return response;
      }
      response.fields["state"] = "unknown";
      response.status = Status::NotFound("no active session or report for \"" +
                                         request.request_id + "\"");
      return response;
    }
    case RequestType::kMetrics: {
      response.body = MetricsRegistry::Global().Snapshot().ToJson();
      return response;
    }
    case RequestType::kDrain: {
      RequestDrain();
      response.fields["draining"] = Flag(true);
      return response;
    }
  }
  response.status = Status::Unimplemented("unhandled request type");
  return response;
}

}  // namespace net
}  // namespace veritas
