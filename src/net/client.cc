#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "api/serialize.h"
#include "api/telemetry.h"
#include "net/protocol.h"
#include "util/fault.h"
#include "util/prng.h"

namespace bagsched::net {

std::pair<std::string, std::uint16_t> parse_hostport(
    const std::string& hostport) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= hostport.size()) {
    throw std::runtime_error("expected HOST:PORT, got \"" + hostport + "\"");
  }
  const std::string host = hostport.substr(0, colon);
  int port = 0;
  try {
    port = std::stoi(hostport.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("bad port in \"" + hostport + "\"");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

namespace {

/// Remaining milliseconds until `deadline`, clamped to >= 0.
int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

int connect_fd(const std::string& host, std::uint16_t port,
               double timeout_seconds = 0.0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ConnectionError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw ConnectionError("bad address \"" + host + "\"");
  }
  const std::string where = host + ":" + std::to_string(port);
  if (timeout_seconds > 0.0) {
    // Poll-based bounded connect: go nonblocking for the handshake, wait
    // for writability, read the outcome from SO_ERROR, then restore
    // blocking mode for the send/recv paths.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      const std::string message =
          "connect " + where + ": " + std::strerror(errno);
      ::close(fd);
      throw ConnectionError(message);
    }
    if (rc != 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout_seconds));
      for (;;) {
        pollfd waiter{fd, POLLOUT, 0};
        const int ready = ::poll(&waiter, 1, remaining_ms(deadline));
        if (ready < 0 && errno == EINTR) continue;
        if (ready == 0) {
          ::close(fd);
          throw TimedOut("connect " + where + ": timed out after " +
                         std::to_string(timeout_seconds) + "s");
        }
        if (ready < 0) {
          const std::string message =
              "connect " + where + ": " + std::strerror(errno);
          ::close(fd);
          throw ConnectionError(message);
        }
        break;
      }
      int error = 0;
      socklen_t error_size = sizeof(error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_size);
      if (error != 0) {
        ::close(fd);
        throw ConnectionError("connect " + where + ": " +
                              std::strerror(error));
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    const std::string message =
        "connect " + where + ": " + std::strerror(errno);
    ::close(fd);
    throw ConnectionError(message);
  }
  if (BAGSCHED_FAULT("net.client.connect")) {
    ::close(fd);
    throw ConnectionError("connect " + where + ": injected fault");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Sends the whole buffer, handling EINTR and partial writes explicitly.
/// ::send returning -1 is never folded into the short-write path: the
/// errno decides between retry (EINTR) and a typed ConnectionError. A
/// zero return (no progress on a nonzero count) is treated as a broken
/// connection rather than spinning.
void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ConnectionError(std::string("send: ") + std::strerror(errno));
    }
    if (n == 0) {
      throw ConnectionError("send: connection closed mid-write");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// One-shot HTTP/1.0 GET on the NDJSON port; returns {status, body}.
std::pair<int, std::string> http_get(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target) {
  const int fd = connect_fd(host, port);
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  try {
    send_all(fd, request.data(), request.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  std::string response;
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      response.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    throw std::runtime_error("malformed HTTP response");
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  // "HTTP/1.0 200 OK" — the status code is the second token.
  const std::size_t space = status_line.find(' ');
  int status = 0;
  if (space != std::string::npos) {
    try {
      status = std::stoi(status_line.substr(space + 1));
    } catch (const std::exception&) {
      status = 0;
    }
  }
  if (status == 0) {
    throw std::runtime_error("malformed HTTP status line: " + status_line);
  }
  return {status, response.substr(header_end + 4)};
}

}  // namespace

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      server_proto_version_(other.server_proto_version_),
      framer_(std::move(other.framer_)) {
  other.fd_ = -1;
  other.server_proto_version_ = 0;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    server_proto_version_ = other.server_proto_version_;
    framer_ = std::move(other.framer_);
    other.fd_ = -1;
    other.server_proto_version_ = 0;
  }
  return *this;
}

Client Client::connect(const std::string& host, std::uint16_t port,
                       double connect_timeout_seconds) {
  Client client;
  client.fd_ = connect_fd(host, port, connect_timeout_seconds);
  return client;
}

Client Client::connect(const std::string& hostport) {
  const auto [host, port] = parse_hostport(hostport);
  return connect(host, port);
}

void Client::close() {
  if (fd_ != -1) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::abort() {
  if (fd_ == -1) return;
  const linger hard{1, 0};  // RST on close instead of a FIN handshake
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd_);
  fd_ = -1;
}

void Client::send_line(const std::string& line) {
  if (fd_ == -1) throw ConnectionError("client: not connected");
  if (BAGSCHED_FAULT("net.client.send")) {
    close();  // model a peer reset surfacing as EPIPE on this write
    throw ConnectionError("send: injected fault");
  }
  std::string out = line;
  out += '\n';
  try {
    send_all(fd_, out.data(), out.size());
  } catch (...) {
    close();  // a failed write leaves the stream unusable
    throw;
  }
}

std::optional<util::Json> Client::read_frame(double timeout_seconds) {
  if (fd_ == -1) throw ConnectionError("client: not connected");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    if (auto line = framer_.next()) {
      if (line->empty()) continue;
      util::Json frame = util::Json::parse(*line);
      // Handshake capture: the hello greeting carries the server's
      // protocol version. It is swallowed here (recorded, not returned) so
      // callers written against the v1 protocol — read one frame, expect
      // the response — keep working against a v2 server.
      if (frame.is_object() && frame.string_or("type", "") == "hello") {
        server_proto_version_ =
            static_cast<int>(frame.number_or("proto_version", 0.0));
        continue;
      }
      return frame;
    }
    if (BAGSCHED_FAULT("net.client.recv")) {
      close();
      throw ConnectionError("recv: injected fault");
    }
    if (timeout_seconds > 0.0) {
      pollfd waiter{fd_, POLLIN, 0};
      const int ready = ::poll(&waiter, 1, remaining_ms(deadline));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) {
        throw ConnectionError(std::string("poll: ") + std::strerror(errno));
      }
      if (ready == 0) {
        throw TimedOut("recv: no frame within " +
                       std::to_string(timeout_seconds) + "s");
      }
    }
    char buffer[16384];
    // Short-read injection stresses the framing reassembly path without
    // violating the protocol: the bytes still arrive, one at a time.
    const std::size_t cap =
        BAGSCHED_FAULT("net.client.recv.short") ? 1 : sizeof(buffer);
    const ssize_t n = ::recv(fd_, buffer, cap, 0);
    if (n > 0) {
      framer_.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return std::nullopt;
    if (errno == EINTR) continue;
    throw ConnectionError(std::string("recv: ") + std::strerror(errno));
  }
}

void Client::submit(const api::SolveRequest& request, const std::string& id,
                    bool want_progress, bool want_schedule) {
  util::Json frame = util::Json::object();
  frame.set("type", "submit");
  frame.set("id", id);
  frame.set("request", api::to_json(request));
  if (want_progress) frame.set("progress", true);
  if (!want_schedule) frame.set("schedule", false);
  send_line(frame.dump());
}

void Client::cancel(const std::string& id) {
  util::Json frame = util::Json::object();
  frame.set("type", "cancel");
  frame.set("id", id);
  send_line(frame.dump());
}

Client::Session Client::open_session(const api::SolveRequest& request,
                                     const std::string& id,
                                     double regret_bound, bool want_schedule,
                                     double read_timeout_seconds) {
  util::Json frame = util::Json::object();
  frame.set("type", "open_session");
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("request", api::to_json(request));
  if (regret_bound >= 0.0) frame.set("regret_bound", regret_bound);
  if (!want_schedule) frame.set("schedule", false);
  send_line(frame.dump());
  // The ok frame (with the session id) precedes the initial solve's events.
  const util::Json ok = await_ok("open_session", id, read_timeout_seconds,
                                 "the session opened");
  Session session;
  session.id = static_cast<std::uint64_t>(ok.at("session").as_int());
  if (const util::Json* epoch = ok.find("epoch")) {
    session.epoch = util::u64_from_json(*epoch);
  }
  session.initial = await_result(id, {}, read_timeout_seconds);
  return session;
}

Client::Resumed Client::resume_session(std::uint64_t session,
                                       std::uint64_t epoch,
                                       const std::string& id,
                                       double read_timeout_seconds) {
  util::Json frame = util::Json::object();
  frame.set("type", "resume_session");
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("session", session);
  frame.set("epoch", std::to_string(epoch));
  send_line(frame.dump());
  const util::Json ok = await_ok("resume_session", id, read_timeout_seconds,
                                 "the resume was acknowledged");
  Resumed resumed;
  resumed.session = static_cast<std::uint64_t>(ok.at("session").as_int());
  if (const util::Json* token = ok.find("epoch")) {
    resumed.epoch = util::u64_from_json(*token);
  }
  resumed.revision = static_cast<std::uint64_t>(
      ok.find("revision") ? ok.at("revision").as_int() : 0);
  resumed.digest = ok.string_or("digest", "");
  return resumed;
}

api::SolveResult Client::delta(std::uint64_t session,
                               const model::Delta& delta,
                               const std::string& id, bool want_schedule,
                               double read_timeout_seconds,
                               std::optional<std::uint64_t> expect_revision) {
  util::Json frame = util::Json::object();
  frame.set("type", "delta");
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("session", session);
  frame.set("delta", api::to_json(delta));
  if (expect_revision.has_value()) {
    frame.set("expect_revision", static_cast<long long>(*expect_revision));
  }
  if (!want_schedule) frame.set("schedule", false);
  send_line(frame.dump());
  return await_result(id, {}, read_timeout_seconds);
}

void Client::close_session(std::uint64_t session, const std::string& id,
                           double read_timeout_seconds) {
  util::Json frame = util::Json::object();
  frame.set("type", "close_session");
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("session", session);
  send_line(frame.dump());
  await_ok("close_session", id, read_timeout_seconds,
           "the close was acknowledged");
}

util::Json Client::await_ok(const char* op, const std::string& id,
                            double read_timeout_seconds, const char* what) {
  for (;;) {
    auto reply = read_frame(read_timeout_seconds);
    if (!reply.has_value()) {
      throw ConnectionError(
          std::string("server closed the connection before ") + what);
    }
    const std::string type = reply->string_or("type", "");
    if (type == "error" && reply->string_or("id", "") == id) {
      throw std::runtime_error(reply->string_or("code", "") + ": " +
                               reply->string_or("message", ""));
    }
    if (type == "ok" && reply->string_or("op", "") == op &&
        reply->string_or("id", "") == id) {
      return std::move(*reply);
    }
  }
}

api::SolveResult Client::solve(const api::SolveRequest& request,
                               const std::string& id, bool want_progress,
                               const api::ProgressFn& on_progress,
                               bool want_schedule,
                               double read_timeout_seconds) {
  submit(request, id, want_progress, want_schedule);
  return await_result(id, on_progress, read_timeout_seconds);
}

api::SolveResult Client::await_result(const std::string& id,
                                      const api::ProgressFn& on_progress,
                                      double read_timeout_seconds) {
  for (;;) {
    auto frame = read_frame(read_timeout_seconds);
    if (!frame.has_value()) {
      throw ConnectionError(
          "server closed the connection before the result arrived");
    }
    const std::string type = frame->string_or("type", "");
    if (type == "error") {
      const std::string code = frame->string_or("code", "");
      const std::string message = frame->string_or("message", "");
      if (frame->string_or("id", "") != id && code != "parse_error") {
        continue;  // concerns another in-flight request
      }
      if (code == "rejected") {
        api::SolveResult result;
        result.status = api::SolveStatus::Cancelled;
        result.cancelled = true;
        result.error = message;
        return result;
      }
      throw std::runtime_error(code + ": " + message);
    }
    if (type != "event" || frame->string_or("id", "") != id) continue;
    const api::ProgressKind kind =
        progress_kind_from_string(frame->at("event").as_string());
    if (kind == api::ProgressKind::Finished) {
      const util::Json* result = frame->find("result");
      if (result == nullptr) {
        throw std::runtime_error("finished event without a result");
      }
      api::SolveResult out = api::solve_result_from_json(*result);
      if (frame->bool_or("degraded", false)) {
        out.stats["degraded"] = true;
      }
      return out;
    }
    if (on_progress) {
      api::ProgressEvent event;
      event.kind = kind;
      event.solver = frame->string_or("solver", "");
      event.phase = frame->string_or("phase", "");
      event.incumbent_makespan = frame->number_or("incumbent_makespan", 0.0);
      event.elapsed_seconds = frame->number_or("elapsed_seconds", 0.0);
      on_progress(event);
    }
  }
}

util::Json Client::stats() {
  util::Json frame = util::Json::object();
  frame.set("type", "stats");
  send_line(frame.dump());
  for (;;) {
    auto reply = read_frame();
    if (!reply.has_value()) {
      throw ConnectionError(
          "server closed the connection before the stats frame arrived");
    }
    if (reply->string_or("type", "") == "stats") return *reply;
  }
}

// --- RetryingClient --------------------------------------------------------

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(std::move(host)), port_(port), policy_(policy) {}

void RetryingClient::backoff(int attempt, const std::string& id) {
  double delay = policy_.initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) delay *= policy_.backoff_multiplier;
  if (delay > policy_.max_backoff_seconds) {
    delay = policy_.max_backoff_seconds;
  }
  // Deterministic jitter: seeded from (policy seed, request id, attempt),
  // so a replay with the same seed sleeps the same schedule.
  util::Xoshiro256 rng(policy_.seed ^
                       (std::hash<std::string>{}(id) +
                        static_cast<std::uint64_t>(attempt) * 0x9e3779b9ULL));
  const double factor =
      rng.uniform_real(1.0 - policy_.jitter, 1.0 + policy_.jitter);
  delay *= factor;
  if (delay > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

template <typename Send>
auto RetryingClient::retry(const std::string& id, Call call, Send&& send) {
  const bool counted = call != Call::Close;
  for (int attempt = 1;; ++attempt) {
    if (counted) ++stats_.attempts;
    bool sent = false;
    // Mid-frame state is unknown after a transport failure: start clean on
    // a new connection, which has claimed no session yet.
    const auto try_again = [&] {
      client_.close();
      session_claimed_ = false;
      return attempt < policy_.max_attempts &&
             (call == Call::Close || policy_.resubmit ||
              (call == Call::Request && !sent));
    };
    try {
      if (call != Call::Request) {
        ensure_session(id);
      } else if (!client_.connected()) {
        client_ = Client::connect(host_, port_,
                                  policy_.connect_timeout_seconds);
        if (attempt > 1) ++stats_.reconnects;
      }
      if (counted && attempt > 1) ++stats_.resubmits;
      sent = true;
      auto result = send();
      if (counted && attempt > 1) ++stats_.recovered;
      return result;
    } catch (const TimedOut&) {
      ++stats_.timeouts;
      if (!try_again()) throw;
    } catch (const ConnectionError&) {
      if (!try_again()) throw;
    }
    backoff(attempt, id);
  }
}

api::SolveResult RetryingClient::solve(const api::SolveRequest& request,
                                       const std::string& id,
                                       bool want_progress,
                                       const api::ProgressFn& on_progress,
                                       bool want_schedule) {
  return retry(id, Call::Request, [&] {
    return client_.solve(request, id, want_progress, on_progress,
                         want_schedule, policy_.read_timeout_seconds);
  });
}

void RetryingClient::ensure_session(const std::string& id) {
  if (!client_.connected()) {
    const bool reconnect = session_ != 0;
    client_ =
        Client::connect(host_, port_, policy_.connect_timeout_seconds);
    if (reconnect) ++stats_.reconnects;
  }
  if (session_ == 0 || session_claimed_) return;
  try {
    const Client::Resumed resumed = client_.resume_session(
        session_, epoch_, "resume-" + id, policy_.read_timeout_seconds);
    revision_ = resumed.revision;
    session_claimed_ = true;
    ++stats_.resumes;
  } catch (const ConnectionError&) {
    throw;  // retryable; the caller's loop reconnects
  } catch (const TimedOut&) {
    throw;
  } catch (const std::runtime_error&) {
    // A structured refusal (unknown_session / stale_epoch / session_owned):
    // the server genuinely lost the session, so stop tracking it — further
    // deltas must fail loudly instead of retrying forever.
    session_ = 0;
    epoch_ = 0;
    session_claimed_ = false;
    throw;
  }
}

Client::Session RetryingClient::open_session(const api::SolveRequest& request,
                                             const std::string& id,
                                             double regret_bound,
                                             bool want_schedule) {
  Client::Session opened = retry(id, Call::Request, [&] {
    return client_.open_session(request, id, regret_bound, want_schedule,
                                policy_.read_timeout_seconds);
  });
  // A previous attempt may have opened a session whose ok was lost; that
  // orphan expires via the server's linger window. Track the one whose
  // acknowledgement we actually hold.
  session_ = opened.id;
  epoch_ = opened.epoch;
  revision_ = 0;
  session_claimed_ = true;
  return opened;
}

api::SolveResult RetryingClient::delta(const model::Delta& delta,
                                       const std::string& id,
                                       bool want_schedule) {
  if (session_ == 0) {
    throw std::runtime_error("RetryingClient: no session open");
  }
  // The commit this call is trying to land sits at expect+1. The token is
  // pinned BEFORE the first attempt: a resume mid-retry reports the
  // server's revision, which already includes this delta when the lost ack
  // actually committed — resending with the pinned token then hits the
  // server's commit cache instead of applying twice.
  const std::uint64_t expect = revision_;
  api::SolveResult result = retry(id, Call::Delta, [&] {
    return client_.delta(session_, delta, id, want_schedule,
                         policy_.read_timeout_seconds, expect);
  });
  if (api::stat_bool(result.stats, "online.duplicate")) {
    ++stats_.duplicate_acks;
  }
  const auto seen = static_cast<long long>(revision_);
  revision_ = static_cast<std::uint64_t>(
      api::stat_int(result.stats, "online.revision", seen));
  return result;
}

void RetryingClient::close_session(const std::string& id) {
  if (session_ == 0) return;
  try {
    retry(id, Call::Close, [&] {
      client_.close_session(session_, id, policy_.read_timeout_seconds);
      return true;
    });
  } catch (const std::runtime_error&) {
    // Still unreachable after the last attempt (the server reaps the
    // session via its linger window), or already gone server-side: either
    // way the session is closed.
  }
  session_ = 0;
  epoch_ = 0;
  revision_ = 0;
  session_claimed_ = false;
}

std::string fetch_metrics(const std::string& host, std::uint16_t port) {
  const auto [status, body] = http_get(host, port, "/metrics");
  if (status != 200) {
    throw std::runtime_error("metrics scrape failed: HTTP " +
                             std::to_string(status));
  }
  return body;
}

std::pair<int, std::string> fetch_healthz(const std::string& host,
                                          std::uint16_t port) {
  return http_get(host, port, "/healthz");
}

}  // namespace bagsched::net
