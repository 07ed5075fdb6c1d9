// perfbench_loadgen — the benchmark behind perfbench/run.py (README.md).
//
//   perfbench_loadgen --workload <wire-small|eptas-cache|session-journal>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --server <path to sched_server> --workdir <dir>
//
// --trace 0 spawns sched_server (--threads 2) and drives one closed loop
// over one loopback connection from this single thread, checking every
// answer, and reports the end-to-end metrics. --trace 1 runs a shorter
// wire phase for the net counters, then replays the same requests
// in-process through each layer's public functions under spans and reports
// the per-layer metrics. The last stdout line is the JSON result; any
// failed check makes the exit code 1.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/serialize.h"
#include "api/service.h"
#include "cache/canonicalize.h"
#include "eptas/classify.h"
#include "eptas/eptas.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/placement.h"
#include "eptas/small_jobs.h"
#include "eptas/transform.h"
#include "inputs.h"
#include "model/lower_bounds.h"
#include "net/client.h"
#include "online/session.h"
#include "persist/journal.h"
#include "sched/greedy_bags.h"
#include "server_process.h"
#include "trace.h"
#include "util/grid.h"
#include "util/json.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
namespace net = bagsched::net;
namespace online = bagsched::online;
namespace persist = bagsched::persist;
namespace util = bagsched::util;
namespace eptas = bagsched::eptas;
namespace cache = bagsched::cache;
namespace sched = bagsched::sched;
using Clock = std::chrono::steady_clock;

// --- Configuration ---------------------------------------------------------

constexpr int kServerWorkers = 2;
constexpr int kClientThreads = 1;
/// Server start-ups per run; setup_s is their median.
constexpr int kSetupRuns = 9;
/// The timed window is measured over the intervals of kIntervalSeconds in
/// which the host stole no CPU time, and at least the quietest kQuietShare
/// of it (see window_metrics).
constexpr double kIntervalSeconds = 0.05;
constexpr double kQuietShare = 0.02;
/// Deltas in each session's churn trace. A slot closes a session at the
/// end of its trace and opens its next, so per-delta cost stays that of a
/// young trace: instances drift in size along a long one.
constexpr int kSessionDeltas = 1000;
/// Deltas each slot's first session commits in the untimed run that seeds
/// the journal the measured server recovers from.
constexpr int kSeedDeltas = 500;
/// Traces are generated for this many deltas per slot per second of run,
/// about the commit rate on a quiet host, so a run seldom reuses one.
constexpr int kDeltaBudgetPerSecond = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string workdir;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(at));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (at - std::floor(at));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::string format_value(double value) {
  std::ostringstream out;
  out << std::setprecision(10) << value;
  return out.str();
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

bool approx_equal(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Checks a returned schedule against the exact instance that was sent.
/// Returns "" when valid; fills `makespan`.
std::string check_schedule(const model::Instance& instance,
                           const api::SolveResult& result, double* makespan) {
  if (!result.ok()) {
    return std::string("status ") + api::to_string(result.status) + ": " +
           result.error;
  }
  const model::ValidationResult validation =
      model::validate(instance, result.schedule);
  if (!validation.ok()) return "invalid schedule: " + validation.message;
  *makespan = result.schedule.makespan(instance);
  if (!approx_equal(*makespan, result.makespan)) {
    return "reported makespan " + std::to_string(result.makespan) +
           " != schedule makespan " + std::to_string(*makespan);
  }
  return {};
}

api::SolveResult result_of(const util::Json& frame) {
  const util::Json* result = frame.find("result");
  if (result == nullptr) throw std::runtime_error("finished frame has no result");
  return api::solve_result_from_json(*result);
}

// --- Traffic: the request streams a closed loop draws from ---------------------

/// What a frame means for the request in flight that it answers.
struct Answer {
  bool terminal = false;  ///< the request is over; its slot may send again
  bool timed = true;      ///< a solve or delta answer, counted in the metrics
  std::string failure;    ///< "" when correct
  double quality = 0.0;   ///< makespan / lower bound of a correct answer
};

/// The request's last frame.
Answer terminal(bool timed, std::string failure = {}) {
  return Answer{true, timed, std::move(failure), 0.0};
}

bool is_finished(const util::Json& frame) {
  return frame.string_or("type", "") == "event" &&
         frame.string_or("event", "") == "finished";
}

/// One connection's request streams. A slot is one closed-loop client: it
/// has one request in flight and sends its next as soon as the answer
/// arrives.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual int slots() const = 0;
  /// The next request of `slot` as a frame with wire id `id`, or "" when
  /// the slot's stream is exhausted.
  virtual std::string next(int slot, const std::string& id) = 0;
  /// Reads a frame other than an error frame that answers `slot`'s
  /// request in flight.
  virtual Answer on_frame(int slot, const util::Json& frame) = 0;
};

/// Solve requests: position k of the stream goes to whichever slot frees up
/// next (all slots share this connection's one stream).
class SolveTraffic final : public Traffic {
 public:
  SolveTraffic(int depth, std::function<const SolveInput&(std::size_t)> at)
      : depth_(depth), at_(std::move(at)),
        in_flight_(static_cast<std::size_t>(depth), nullptr) {}

  int slots() const override { return depth_; }

  std::string next(int slot, const std::string& id) override {
    const SolveInput& input = at_(next_++);
    in_flight_[static_cast<std::size_t>(slot)] = &input;
    return R"({"type":"submit","id":")" + id + R"(","request":)" +
           input.request_json + "}";
  }

  Answer on_frame(int slot, const util::Json& frame) override {
    if (!is_finished(frame)) return {};
    const SolveInput& input = *in_flight_[static_cast<std::size_t>(slot)];
    double makespan = 0.0;
    Answer answer = terminal(
        true,
        check_schedule(*input.request.instance, result_of(frame), &makespan));
    answer.quality = makespan / input.lower_bound;
    return answer;
  }

 private:
  int depth_;
  std::function<const SolveInput&(std::size_t)> at_;
  std::size_t next_ = 0;
  std::vector<const SolveInput*> in_flight_;
};

/// One slot of the session workload as the client tracks it: the session
/// it is driving, and that session's committed state, which every answer
/// must match exactly.
struct SessionState {
  /// The slot's sessions, one churn trace each, replayed in turn.
  const std::vector<SessionInput>* inputs = nullptr;
  std::size_t current = 0;  ///< index into *inputs
  enum class Op { Delta, Close, Open } op = Op::Delta;  ///< in flight
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  std::size_t next = 0;  ///< index of the next delta to send
  std::uint64_t revision = 0;  ///< commits so far (noop deltas commit none)
  model::Instance instance;
  model::Schedule schedule;
  model::Instance pending;  ///< post-delta instance of the delta in flight

  const SessionInput& input() const { return (*inputs)[current]; }
};

/// Session deltas: slot s drives one session at a time, one delta in
/// flight. Each slot sends at most `limit` deltas of its current session;
/// with `rotate`, a session whose trace ends is closed and the slot's next
/// trace opened as a new session (after the last, the first again), so a
/// run of any length sees traces of one bounded age.
class SessionTraffic final : public Traffic {
 public:
  SessionTraffic(std::vector<SessionState>& sessions, std::size_t limit,
                 bool rotate)
      : sessions_(sessions), limit_(limit), rotate_(rotate) {}

  int slots() const override { return static_cast<int>(sessions_.size()); }

  std::string next(int slot, const std::string& id) override {
    SessionState& s = sessions_[static_cast<std::size_t>(slot)];
    if (s.op == SessionState::Op::Close) {  // closed: open the next one
      s.current = (s.current + 1) % s.inputs->size();
      s.op = SessionState::Op::Open;
      return R"({"type":"open_session","id":")" + id + R"(","request":)" +
             s.input().open_json + R"(,"regret_bound":)" +
             std::to_string(kRegretBound) + "}";
    }
    if (s.next < std::min(limit_, s.input().deltas.size())) {
      s.op = SessionState::Op::Delta;
      s.pending = model::apply_delta(s.instance, s.input().deltas[s.next]);
      const std::string& delta = s.input().delta_json[s.next++];
      return R"({"type":"delta","id":")" + id + R"(","session":)" +
             std::to_string(s.id) + R"(,"delta":)" + delta + "}";
    }
    if (!rotate_) return {};
    s.op = SessionState::Op::Close;
    return R"({"type":"close_session","id":")" + id + R"(","session":)" +
           std::to_string(s.id) + "}";
  }

  Answer on_frame(int slot, const util::Json& frame) override {
    SessionState& s = sessions_[static_cast<std::size_t>(slot)];
    const bool ok = frame.string_or("type", "") == "ok";
    switch (s.op) {
      case SessionState::Op::Close:
        return ok ? terminal(false) : Answer{};
      case SessionState::Op::Open: {
        if (ok) {
          s.id = static_cast<std::uint64_t>(frame.at("session").as_int());
          s.epoch = std::stoull(frame.string_or("epoch", "0"));
          return {};
        }
        if (!is_finished(frame)) return {};
        s.instance = *s.input().open_request.instance;
        const api::SolveResult result = result_of(frame);
        double makespan = 0.0;
        const std::string failure =
            check_schedule(s.instance, result, &makespan);
        s.schedule = result.schedule;
        s.next = 0;
        s.revision = 0;
        return terminal(false, failure);
      }
      case SessionState::Op::Delta:
        break;
    }
    if (!is_finished(frame)) return {};
    api::SolveResult result = result_of(frame);
    double makespan = 0.0;
    Answer answer = terminal(true, check_schedule(s.pending, result, &makespan));
    const double lower = model::combined_lower_bound(s.pending);
    if (answer.failure.empty() &&
        makespan > (1.0 + kRegretBound) * lower * (1.0 + 1e-9)) {
      answer.failure = "commit makespan " + std::to_string(makespan) +
                       " exceeds (1 + regret bound) x lower bound " +
                       std::to_string(lower);
    }
    if (answer.failure.empty()) {
      answer.quality = makespan / lower;
      if (!model::is_noop(s.input().deltas[s.next - 1])) ++s.revision;
      s.instance = std::move(s.pending);
      s.schedule = std::move(result.schedule);
    }
    return answer;
  }

 private:
  std::vector<SessionState>& sessions_;
  std::size_t limit_;
  bool rotate_;
};

// --- The closed loop -------------------------------------------------------------

struct Completion {
  double done = 0.0;  ///< seconds since the loop started
  double latency = 0.0;
  /// Submit -> finished inside the server's SchedulingService, from the
  /// finished frame's elapsed_seconds (0 on error frames).
  double service = 0.0;
};

struct LoopResult {
  std::vector<Completion> completions;  ///< every timed answer, warm-up included
  double t0 = 0.0, t1 = 0.0;            ///< the timed window
  ProcSample proc0, proc1;  ///< server counters at t0 and t1
  /// Host CPU and server CPU time at t0, every interval and at t1.
  struct Mark {
    double t = 0.0;
    HostCpu host;
    double server_cpu = 0.0;
  };
  std::vector<Mark> marks;
  util::Json stats0, stats1;  ///< server stats frames at t0 and t1
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double quality_sum = 0.0;
  std::uint64_t quality_count = 0;
  std::vector<std::string> errors;  ///< the first few failures

  std::vector<const Completion*> timed() const {
    std::vector<const Completion*> out;
    for (const Completion& c : completions) {
      if (c.done >= t0 && c.done < t1) out.push_back(&c);
    }
    return out;
  }
};

/// Drives `traffic` over `client` from this thread: every slot keeps one
/// request in flight. After `warmup` seconds the timed window opens; after
/// `seconds` more no new requests are sent and the loop drains. Server
/// /proc counters and a stats frame are sampled at both ends, host and
/// server CPU time also every `interval_seconds` in between (0 = never).
/// With `server` null there is no timed window and the loop runs until
/// every slot's stream is exhausted.
LoopResult run_loop(net::Client& client, Traffic& traffic,
                    const ServerProcess* server, double warmup,
                    double seconds, double interval_seconds = 0.0) {
  LoopResult out;
  struct InFlight {
    int slot;
    double sent;
  };
  std::unordered_map<std::string, InFlight> in_flight;
  const Clock::time_point start = Clock::now();
  long long next_id = 0;
  bool sending = true;
  bool opened = false;
  int stats_pending = 0;

  const auto send = [&](int slot) {
    const std::string id = std::to_string(next_id++);
    const std::string frame = traffic.next(slot, id);
    if (frame.empty()) {
      if (server != nullptr) {
        throw std::runtime_error("a request stream ran dry during the run");
      }
      return;
    }
    in_flight.emplace(id, InFlight{slot, seconds_since(start)});
    client.send_line(frame);
    ++out.attempted;
  };
  const auto mark = [&] {
    out.marks.push_back(
        {seconds_since(start), read_host_cpu(), server->cpu_seconds()});
    return out.marks.back().t;
  };
  const auto stats = [&] {
    client.send_line(R"({"type":"stats"})");
    ++stats_pending;
  };

  for (int slot = 0; slot < traffic.slots(); ++slot) send(slot);
  while (!in_flight.empty() || stats_pending > 0) {
    std::optional<util::Json> frame = client.read_frame(60.0);
    if (!frame.has_value()) {
      throw std::runtime_error("sched_server closed the connection");
    }
    const double now = seconds_since(start);
    if (server != nullptr && !opened && now >= warmup) {
      out.proc0 = server->sample();
      out.t0 = mark();
      stats();
      opened = true;
    }
    if (opened && sending && now >= warmup + seconds) {
      out.t1 = mark();
      out.proc1 = server->sample();
      stats();
      sending = false;
    } else if (opened && sending && interval_seconds > 0 &&
               now >= out.marks.back().t + interval_seconds) {
      mark();
    }
    const std::string type = frame->string_or("type", "");
    if (type == "stats") {
      (out.stats0.is_null() ? out.stats0 : out.stats1) = std::move(*frame);
      --stats_pending;
      continue;
    }
    if (type == "hello") continue;
    const auto it = in_flight.find(frame->string_or("id", ""));
    if (it == in_flight.end()) {
      throw std::runtime_error("unexpected frame: " + frame->dump());
    }
    Answer answer;
    if (type == "error") {
      answer = terminal(true, "error frame: " + frame->string_or("code", "") +
                                  ": " + frame->string_or("message", ""));
    } else {
      try {
        answer = traffic.on_frame(it->second.slot, *frame);
      } catch (const std::exception& e) {
        answer = terminal(true, std::string("undecodable answer: ") + e.what());
      }
    }
    if (!answer.terminal) continue;
    const InFlight request = it->second;
    in_flight.erase(it);

    if (!answer.failure.empty()) {
      ++out.failed;
      if (out.errors.size() < 5) out.errors.push_back(answer.failure);
    } else if (answer.timed) {
      out.quality_sum += answer.quality;
      ++out.quality_count;
    }
    if (answer.timed) {
      const util::Json* service = frame->find("elapsed_seconds");
      out.completions.push_back(
          Completion{now, now - request.sent,
                     service != nullptr ? service->as_number() : 0.0});
    }
    if (sending) send(request.slot);
  }
  return out;
}

// --- Workload plumbing -------------------------------------------------------

std::vector<std::string> server_args(const std::string& journal_dir) {
  std::vector<std::string> args = {"--threads", std::to_string(kServerWorkers),
                                   "--drain-grace", "1"};
  if (!journal_dir.empty()) {
    args.insert(args.end(),
                {"--journal-dir", journal_dir, "--fsync", "interval"});
  }
  return args;
}

/// The in-process twin of the measured server's service.
api::ServiceConfig service_config(persist::SessionJournal* journal) {
  api::ServiceConfig config;
  config.num_threads = kServerWorkers;
  config.journal = journal;
  return config;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// The session workload's inputs plus the journal of its untimed seeding
/// run; `sessions` holds the client's view as of the last seeded commit.
struct SeededSessions {
  std::vector<std::vector<SessionInput>> inputs;  ///< per slot
  std::vector<SessionState> sessions;
  fs::path journal;
};

SeededSessions seed_sessions(const Args& args, double run_seconds) {
  SeededSessions seeded;
  const int per_slot =
      1 + static_cast<int>(std::ceil(kDeltaBudgetPerSecond * run_seconds /
                                     kSessionDeltas));
  const Clock::time_point start = Clock::now();
  for (int slot = 0; slot < 2; ++slot) {
    std::vector<SessionInput>& inputs = seeded.inputs.emplace_back();
    for (int j = 0; j < per_slot; ++j) {
      inputs.push_back(
          session_input(args.seed, slot * 100'000 + j, kSessionDeltas));
    }
  }
  std::cout << "  session traces: 2 x " << per_slot << " x " << kSessionDeltas
            << " deltas generated in " << format_value(seconds_since(start))
            << " s\n";
  seeded.journal = fs::path(args.workdir) / "seed-journal";
  fresh_dir(seeded.journal);
  ServerProcess server(args.server, server_args(seeded.journal.string()),
                       args.workdir + "/server.log", /*journal=*/true);
  auto client = net::Client::connect("127.0.0.1", server.port(), 10.0);
  for (std::size_t slot = 0; slot < 2; ++slot) {
    SessionState state;
    state.inputs = &seeded.inputs[slot];
    const net::Client::Session opened =
        client.open_session(state.input().open_request,
                            "open-" + std::to_string(slot), kRegretBound);
    state.id = opened.id;
    state.epoch = opened.epoch;
    state.instance = *state.input().open_request.instance;
    double makespan = 0.0;
    const std::string error =
        check_schedule(state.instance, opened.initial, &makespan);
    if (!error.empty()) throw std::runtime_error("session open: " + error);
    state.schedule = opened.initial.schedule;
    seeded.sessions.push_back(std::move(state));
  }
  SessionTraffic traffic(seeded.sessions, kSeedDeltas, /*rotate=*/false);
  const LoopResult loop = run_loop(client, traffic, nullptr, 0.0, 0.0);
  if (loop.failed > 0) {
    throw std::runtime_error("journal seeding failed: " + loop.errors.front());
  }
  // A crash, not a drain: every acked commit is in the file, and the
  // measured server has to recover all of it.
  server.kill();
  return seeded;
}

/// Starts the measured server kSetupRuns times (each session-journal boot
/// recovers its own copy of the seeded journal) and keeps the last one.
std::unique_ptr<ServerProcess> start_server(const Args& args,
                                            const SeededSessions* seeded,
                                            int runs,
                                            std::vector<double>* setups) {
  std::unique_ptr<ServerProcess> server;
  for (int run = 0; run < runs; ++run) {
    if (server) server->stop();
    std::string journal;
    if (seeded != nullptr) {
      const fs::path dir =
          fs::path(args.workdir) / ("journal-" + std::to_string(run));
      fresh_dir(dir);
      fs::copy_file(seeded->journal / "journal.wal", dir / "journal.wal");
      journal = dir.string();
    }
    server = std::make_unique<ServerProcess>(
        args.server, server_args(journal), args.workdir + "/server.log",
        seeded != nullptr);
    setups->push_back(server->setup_seconds());
  }
  return server;
}

/// Reclaims both recovered sessions on `client` and checks the server is
/// exactly where the client left it.
void resume_sessions(net::Client& client,
                     const std::vector<SessionState>& sessions) {
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const net::Client::Resumed resumed = client.resume_session(
        sessions[s].id, sessions[s].epoch, "resume-" + std::to_string(s));
    const std::string digest = persist::schedule_digest(sessions[s].schedule);
    if (resumed.revision != sessions[s].revision || resumed.digest != digest) {
      throw std::runtime_error(
          "recovered session " + std::to_string(sessions[s].id) +
          " is at revision " + std::to_string(resumed.revision) +
          ", expected " + std::to_string(sessions[s].revision));
    }
  }
}

struct Workload {
  std::string name;
  int depth = 1;  ///< requests in flight
};

Workload workload_of(const std::string& name) {
  if (name == "wire-small") return {name, 16};
  if (name == "eptas-cache") return {name, kServerWorkers};
  if (name == "session-journal") return {name, 2};
  throw std::invalid_argument("unknown workload: " + name);
}

// --- Reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_report(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(32) << m.name << std::right
              << std::setw(16) << format_value(m.value) << " " << m.unit
              << "\n";
  }
  util::Json json_metrics = util::Json::object();
  for (const Metric& m : metrics) {
    util::Json entry = util::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    json_metrics.set(m.name, std::move(entry));
  }
  util::Json result = util::Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<long long>(attempted));
  result.set("failed", static_cast<long long>(failed));
  result.set("metrics", std::move(json_metrics));
  std::cout << result.dump() << std::endl;
}

double counter_delta(const LoopResult& loop, const char* group,
                     const char* key) {
  const auto read = [&](const util::Json& stats) {
    const util::Json* section = stats.is_null() ? nullptr : stats.find(group);
    const util::Json* value = section ? section->find(key) : nullptr;
    return value ? value->as_number() : 0.0;
  };
  return read(loop.stats1) - read(loop.stats0);
}

double steal_share(const HostCpu& from, const HostCpu& to) {
  return ratio(static_cast<double>(to.steal - from.steal),
               static_cast<double>(to.total - from.total));
}

void print_loop_diagnostics(const LoopResult& loop) {
  const double steal =
      steal_share(loop.marks.front().host, loop.marks.back().host);
  std::cout << "  host steal share during the timed window: "
            << format_value(100.0 * steal) << "%\n"
            << "  requests: " << loop.attempted << " attempted, "
            << loop.failed << " failed, " << loop.timed().size()
            << " answered in the timed window\n";
  for (const std::string& error : loop.errors) {
    std::cout << "  FAILED: " << error << "\n";
  }
}

// --- End-to-end run (--trace 0) ---------------------------------------------------

/// Throughput, p50, p99 and server CPU per answer of the timed window.
///
/// Other tenants of the host take CPU time from this machine (steal), and
/// every workload slows with it several times over: at 15% steal wire-small
/// loses half its throughput and its p99 grows tenfold. The window is
/// therefore measured only while the host stole nothing: it is cut into
/// kIntervalSeconds intervals, and every interval without steal in it or
/// its neighbours is taken (then, while they cover less than kQuietShare of
/// the window, the least-stolen others). Throughput and CPU per answer
/// count the answers that arrived in a taken interval, latencies the
/// requests that were sent and answered within taken intervals.
/// Whole-window figures are printed beside them.
void window_metrics(const LoopResult& loop, std::vector<Metric>* metrics) {
  const std::vector<LoopResult::Mark>& marks = loop.marks;
  const std::size_t intervals = marks.size() - 1;
  // /proc/stat counts steal in 10 ms ticks, so a short theft can show up in
  // the interval after it: an interval is as stolen as its neighbours.
  const auto steal = [&](std::size_t i) {
    std::uint64_t most = 0;
    for (std::size_t j = i > 0 ? i - 1 : i; j < std::min(i + 2, intervals);
         ++j) {
      most = std::max(most, marks[j + 1].host.steal - marks[j].host.steal);
    }
    return most;
  };
  std::vector<std::size_t> order(intervals);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal(a) < steal(b);
                   });
  std::vector<bool> taken(intervals, false);
  double covered = 0.0;
  for (const std::size_t i : order) {
    if (steal(i) > 0 && covered >= kQuietShare * (loop.t1 - loop.t0)) break;
    taken[i] = true;
    covered += marks[i + 1].t - marks[i].t;
  }
  // untaken_before[i]: intervals before i that were not taken.
  std::vector<std::size_t> untaken_before(intervals + 1, 0);
  for (std::size_t i = 0; i < intervals; ++i) {
    untaken_before[i + 1] = untaken_before[i] + (taken[i] ? 0 : 1);
  }
  const auto interval_of = [&](double t) {
    const auto it = std::upper_bound(
        marks.begin(), marks.end(), t,
        [](double value, const LoopResult::Mark& m) { return value < m.t; });
    return static_cast<std::size_t>(it - marks.begin()) - 1;
  };

  double seconds = 0.0, cpu = 0.0;
  HostCpu host;  ///< host CPU time over the taken intervals
  for (std::size_t i = 0; i < intervals; ++i) {
    if (!taken[i]) continue;
    seconds += marks[i + 1].t - marks[i].t;
    cpu += marks[i + 1].server_cpu - marks[i].server_cpu;
    host.total += marks[i + 1].host.total - marks[i].host.total;
    host.steal += marks[i + 1].host.steal - marks[i].host.steal;
  }
  std::size_t answers = 0;
  std::vector<double> latencies;
  std::vector<double> all_latencies;
  for (const Completion* c : loop.timed()) {
    all_latencies.push_back(c->latency * 1e3);
    const std::size_t done = interval_of(c->done);
    if (!taken[done]) continue;
    ++answers;
    const double sent_at = c->done - c->latency;
    if (sent_at < loop.t0) continue;
    if (untaken_before[done + 1] == untaken_before[interval_of(sent_at)]) {
      latencies.push_back(c->latency * 1e3);
    }
  }
  const double window = loop.t1 - loop.t0;
  std::cout << "  measured over " << format_value(seconds) << " s of the "
            << format_value(window) << " s window at "
            << format_value(100.0 * steal_share(HostCpu{}, host))
            << "% steal; " << latencies.size() << " latencies, "
            << latencies.size() / 100 << " beyond p99\n"
            << "  whole window: throughput_rps "
            << format_value(static_cast<double>(all_latencies.size()) / window)
            << ", p50_ms " << format_value(quantile(all_latencies, 0.5))
            << ", p99_ms " << format_value(quantile(all_latencies, 0.99))
            << ", cpu_ms_per_req "
            << format_value(1e3 * ratio(marks.back().server_cpu -
                                            marks.front().server_cpu,
                                        static_cast<double>(
                                            all_latencies.size())))
            << "\n";
  metrics->push_back(
      {"throughput_rps", static_cast<double>(answers) / seconds, "1/s"});
  metrics->push_back({"p50_ms", quantile(latencies, 0.50), "ms"});
  metrics->push_back({"p99_ms", quantile(latencies, 0.99), "ms"});
  metrics->push_back(
      {"cpu_ms_per_req", 1e3 * ratio(cpu, static_cast<double>(answers)),
       "ms"});
}

int run_end_to_end(const Args& args, const Workload& workload) {
  const double warmup = std::clamp(0.1 * args.seconds, 0.2, 2.0);
  std::unique_ptr<SeededSessions> seeded;
  std::vector<SolveInput> pool;
  std::unique_ptr<EptasStream> stream;
  std::unique_ptr<Traffic> traffic;
  if (workload.name == "session-journal") {
    seeded = std::make_unique<SeededSessions>(
        seed_sessions(args, warmup + args.seconds + 1.0));
    traffic = std::make_unique<SessionTraffic>(seeded->sessions, SIZE_MAX,
                                               /*rotate=*/true);
  } else if (workload.name == "wire-small") {
    pool = wire_small_pool(args.seed);
    traffic = std::make_unique<SolveTraffic>(
        workload.depth, [&pool](std::size_t k) -> const SolveInput& {
          return pool[k % pool.size()];
        });
  } else {
    stream = std::make_unique<EptasStream>(args.seed);
    traffic = std::make_unique<SolveTraffic>(
        workload.depth,
        [&stream](std::size_t k) -> const SolveInput& { return stream->at(k); });
  }

  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server =
      start_server(args, seeded.get(), kSetupRuns, &setups);
  auto client = net::Client::connect("127.0.0.1", server->port(), 10.0);
  if (seeded) resume_sessions(client, seeded->sessions);
  const LoopResult loop =
      run_loop(client, *traffic, server.get(), warmup, args.seconds,
               kIntervalSeconds);
  const double peak_rss = server->peak_rss_mib();
  client.close();
  server->stop();

  print_loop_diagnostics(loop);
  std::vector<Metric> metrics;
  window_metrics(loop, &metrics);
  metrics.push_back({"quality_ratio",
                     ratio(loop.quality_sum,
                           static_cast<double>(loop.quality_count)),
                     "ratio"});
  const double fail_ratio = ratio(static_cast<double>(loop.failed),
                                  static_cast<double>(loop.attempted));
  metrics.push_back({"ok_ratio", 1.0 - fail_ratio, "ratio"});
  metrics.push_back({"setup_s", median(setups), "s"});
  metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});

  std::cout << "  setup runs (s):";
  for (const double s : setups) std::cout << " " << format_value(s);
  std::cout << "\n  fail_ratio " << format_value(fail_ratio) << " ratio\n";
  const bool correct = loop.failed == 0;
  print_report(metrics, correct, loop.attempted, loop.failed);
  return correct ? 0 : 1;
}

// --- Traced run (--trace 1) -------------------------------------------------

/// Wire phase of the traced run: the server-side costs the in-process
/// replay cannot see, per answered request of the timed window.
struct WirePhase {
  LoopResult loop;
  double cpu_us_per_req = 0.0;
};

/// Span request id of delta `position` of session `slot`.
long long trace_id(int slot, long long position) {
  return static_cast<long long>(slot) * 1'000'000'000LL + position;
}

WirePhase wire_phase(const Args& args, Traffic& traffic,
                     const SeededSessions* seeded, double warmup,
                     double seconds, std::vector<Metric>* metrics) {
  WirePhase phase;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server =
      start_server(args, seeded, 1, &setups);
  auto client = net::Client::connect("127.0.0.1", server->port(), 10.0);
  if (seeded != nullptr) resume_sessions(client, seeded->sessions);
  phase.loop = run_loop(client, traffic, server.get(), warmup, seconds);
  client.close();
  server->stop();

  const LoopResult& loop = phase.loop;
  const ProcSample& proc0 = loop.proc0;
  const ProcSample& proc1 = loop.proc1;
  const std::vector<const Completion*> timed = loop.timed();
  const double answered = static_cast<double>(timed.size());
  // Round trip minus the time the same request spent inside the server's
  // SchedulingService: framing, JSON, the poll loop and the socket path.
  double outside_service = 0.0;
  for (const Completion* c : timed) outside_service += c->latency - c->service;
  metrics->push_back({"net.wire_us", 1e6 * ratio(outside_service, answered),
                      "us"});
  phase.cpu_us_per_req =
      1e6 * ratio(proc1.cpu_seconds - proc0.cpu_seconds, answered);
  metrics->push_back(
      {"net.ctx_switches_per_req",
       ratio(static_cast<double>(proc1.ctx_switches -
                                 proc0.ctx_switches),
             answered),
       "count"});
  metrics->push_back(
      {"net.syscalls_per_req",
       ratio(static_cast<double>(proc1.syscalls - proc0.syscalls),
             answered),
       "count"});
  metrics->push_back(
      {"net.frames_out_per_req",
       ratio(counter_delta(loop, "server", "frames_out"), answered), "count"});
  metrics->push_back(
      {"net.bytes_in_per_req",
       ratio(counter_delta(loop, "server", "bytes_in"), answered), "B"});
  metrics->push_back(
      {"net.bytes_out_per_req",
       ratio(counter_delta(loop, "server", "bytes_out"), answered), "B"});
  print_loop_diagnostics(loop);
  return phase;
}

/// Totals of the replay's spans by name, as a mean in microseconds per span.
double mean_us(const Tracer& tracer, const std::string& name) {
  const auto totals = tracer.totals();
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.mean_us();
}

double cpu_seconds(clockid_t clock) {
  timespec now{};
  ::clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

/// CPU time of every thread but the calling one: in a replay, the
/// service's workers (and the journal flusher) while this thread plays the
/// client and the server's codec.
class WorkerCpu {
 public:
  WorkerCpu() : start_(now()) {}
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
           cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  }
  double start_;
};

/// What the in-process replay of a solve stream measured.
struct SolveReplay {
  double wall_seconds = 0.0;
  double service_cpu_us = 0.0;  ///< worker CPU per request
  double queue_wait_ms = 0.0;  ///< mean over requests
  double hit_service_us = 0.0;  ///< mean submit -> wait of cache hits
  std::uint64_t hits = 0;
  std::uint64_t failed = 0;
};

/// Replays `count` stream positions through the layers a wire solve passes
/// — client encode, server decode, SchedulingService, result encode,
/// client decode — with `depth` requests in flight (waited on in order).
SolveReplay replay_solves(
    Tracer& tracer, const std::function<const SolveInput&(std::size_t)>& at,
    std::size_t count, int depth) {
  struct InFlight {
    std::size_t k = 0;
    int root = -1;
    int service = -1;
    api::SolveHandle handle;
    std::atomic<double> queue_wait{0.0};
    /// Submit -> Finished as the service saw it: the loop below waits in
    /// submit order, so a later request may finish before it is waited on.
    std::atomic<double> service_seconds{0.0};
  };
  api::SchedulingService service(service_config(nullptr));
  SolveReplay replay;
  double queue_wait_sum = 0.0;
  double hit_sum = 0.0;
  std::deque<std::unique_ptr<InFlight>> window;

  const auto finish = [&](InFlight& f) {
    const long long id = static_cast<long long>(f.k);
    const api::SolveResult& result = f.handle.wait();
    tracer.end_after(f.service, f.service_seconds.load());
    if (api::stat_bool(result.stats, "cache_hit")) {
      ++replay.hits;
      hit_sum += f.service_seconds.load() * 1e6;
    }
    queue_wait_sum += f.queue_wait.load();
    const std::string text = tracer.scoped(
        "serialize.result_encode", id, f.root,
        [&] { return api::to_json(result).dump(); });
    const api::SolveResult back = tracer.scoped(
        "serialize.result_decode", id, f.root, [&] {
          return api::solve_result_from_json(util::Json::parse(text));
        });
    tracer.scoped("check", id, f.root, [&] {
      double makespan = 0.0;
      if (!check_schedule(*at(f.k).request.instance, back, &makespan)
               .empty()) {
        ++replay.failed;
      }
    });
    tracer.end(f.root);
  };

  const Clock::time_point start = Clock::now();
  const WorkerCpu workers;
  for (std::size_t k = 0; k < count; ++k) {
    if (window.size() == static_cast<std::size_t>(depth)) {
      finish(*window.front());
      window.pop_front();
    }
    auto f = std::make_unique<InFlight>();
    f->k = k;
    const long long id = static_cast<long long>(k);
    f->root = tracer.begin("request", id);
    const SolveInput& input = at(k);
    const std::string frame =
        tracer.scoped("serialize.request_encode", id, f->root, [&] {
          return R"({"type":"submit","id":")" + std::to_string(k) +
                 R"(","request":)" + api::to_json(input.request).dump() + "}";
        });
    api::SolveRequest request =
        tracer.scoped("serialize.request_decode", id, f->root, [&] {
          return api::solve_request_from_json(
              util::Json::parse(frame).at("request"));
        });
    InFlight* raw = f.get();
    request.on_progress = [raw](const api::ProgressEvent& event) {
      if (event.kind == api::ProgressKind::Started) {
        raw->queue_wait.store(event.elapsed_seconds * 1e3);
      } else if (event.kind == api::ProgressKind::Finished) {
        raw->service_seconds.store(event.elapsed_seconds);
      }
    };
    f->service = tracer.begin("service.submit_wait", id, f->root);
    f->handle = service.submit(std::move(request));
    window.push_back(std::move(f));
  }
  while (!window.empty()) {
    finish(*window.front());
    window.pop_front();
  }
  replay.wall_seconds = seconds_since(start);
  replay.service_cpu_us = 1e6 * ratio(workers.seconds(), static_cast<double>(count));
  replay.queue_wait_ms = ratio(queue_wait_sum, static_cast<double>(count));
  replay.hit_service_us = ratio(hit_sum, static_cast<double>(replay.hits));
  return replay;
}

/// Solve requests one at a time: the direct solver call against the same
/// request through the service, and the sched layer's greedy on its own.
struct SequentialSolves {
  double handoff_us = 0.0;   ///< service submit->wait minus Solver::solve
  double greedy_us = 0.0;    ///< sched::greedy_bags
};

SequentialSolves sequential_solves(
    Tracer& tracer, const std::function<const SolveInput&(std::size_t)>& at,
    std::size_t count) {
  api::SchedulingService service(service_config(nullptr));
  const auto& registry = api::SolverRegistry::global();
  for (std::size_t k = 0; k < count; ++k) {
    const long long id = static_cast<long long>(k);
    const SolveInput& input = at(k);
    const int root = tracer.begin("sequential", id);
    tracer.scoped("solver.solve", id, root, [&] {
      return registry.resolve(input.request.solvers.front())
          .solve(*input.request.instance, input.request.options);
    });
    tracer.scoped("service.sequential", id, root, [&] {
      api::SolveHandle handle = service.submit(input.request);
      return handle.wait().makespan;
    });
    tracer.scoped("sched.greedy_bags", id, root,
                  [&] { return sched::greedy_bags(*input.request.instance); });
    tracer.end(root);
  }
  SequentialSolves out;
  out.handoff_us = mean_us(tracer, "service.sequential") -
                   mean_us(tracer, "solver.solve");
  out.greedy_us = mean_us(tracer, "sched.greedy_bags");
  return out;
}

/// The EPTAS on fresh instances of the stream: the whole solve (at
/// hardware concurrency, as the server runs it), then each pipeline stage
/// called in order at the solve's final guess.
struct EptasBreakdown {
  std::uint64_t solves = 0;
  std::uint64_t staged = 0;  ///< solves whose final guess was replayed
  double guesses = 0, probes = 0, memo_hits = 0, fallbacks = 0;
  double lp_iterations = 0, milp_nodes = 0, columns = 0;
};

EptasBreakdown eptas_breakdown(Tracer& tracer, EptasStream& stream,
                               std::size_t count, double budget_seconds) {
  EptasBreakdown out;
  const Clock::time_point start = Clock::now();
  const eptas::EptasConfig config;
  for (std::size_t k = 0; k < count && seconds_since(start) < budget_seconds;
       ++k) {
    const SolveInput& input = stream.at(k);
    if (input.repeat_of >= 0) continue;
    const model::Instance& instance = *input.request.instance;
    const double eps = input.request.options.eps;
    const long long id = static_cast<long long>(k);
    const int root = tracer.begin("request", id);
    const eptas::EptasResult solved = tracer.scoped(
        "eptas.solve", id, root,
        [&] { return eptas::eptas_schedule(instance, eps, config); });
    const eptas::EptasStats& stats = solved.stats;
    ++out.solves;
    out.guesses += stats.guesses_tried;
    out.probes += stats.probes_launched;
    out.memo_hits += stats.probes_memo_hits;
    out.fallbacks += stats.used_fallback ? 1 : 0;
    if (stats.pipeline_succeeded) {
      const int guess = tracer.begin("eptas.final_guess", id, root);
      const util::EpsGrid grid(eps);
      std::vector<double> rounded;
      for (const model::Job& job : instance.jobs()) {
        rounded.push_back(
            grid.value(grid.index_above(job.size / stats.final_guess)));
      }
      const auto stage = [&](const char* name, auto&& body) {
        return tracer.scoped(name, id, guess, body);
      };
      const auto cls = stage("eptas.classify", [&] {
        return eptas::classify(instance, eps, config, &rounded);
      });
      if (cls) {
        const eptas::Transformed transformed =
            stage("eptas.transform", [&] { return eptas::transform(instance, *cls); });
        const eptas::PatternSpace space = stage("eptas.patterns", [&] {
          return eptas::build_pattern_space(transformed, *cls);
        });
        const auto master = stage("eptas.master", [&] {
          return eptas::solve_master(space, transformed, *cls, config);
        });
        std::optional<eptas::PlacementResult> placement;
        if (master) {
          placement = stage("eptas.placement", [&] {
            return eptas::place_ml_jobs(transformed, space, *master, config);
          });
        }
        eptas::SmallJobStats small;
        if (placement &&
            stage("eptas.small_jobs", [&] {
              return eptas::schedule_small_jobs(transformed, *cls, space,
                                                *master, *placement, config,
                                                small);
            })) {
          const auto medium = stage("eptas.medium", [&] {
            return eptas::insert_medium_jobs(instance, transformed,
                                             *placement);
          });
          if (medium) {
            stage("eptas.lift", [&] {
              return eptas::lift_solution(instance, transformed, *placement,
                                          *medium, config, small, &*cls);
            });
            ++out.staged;
            out.lp_iterations += static_cast<double>(master->stats.lp_iterations);
            out.milp_nodes += static_cast<double>(master->stats.milp_nodes);
            out.columns += master->stats.columns;
          }
        }
      }
      tracer.end(guess);
    }
    tracer.end(root);
  }
  return out;
}

/// Replays deltas S..S+count-1 of both sessions through the layers a wire
/// delta passes — client encode, server decode, the journaled service,
/// result encode, client decode — starting from a replay of a copy of the
/// seeded journal. One delta is in flight at a time, the sessions taking
/// turns, so each span times its own layer's work alone.
struct SessionReplay {
  double wall_seconds = 0.0;
  double service_cpu_us = 0.0;  ///< worker CPU per delta
  std::uint64_t deltas = 0;
  std::uint64_t failed = 0;
  double fsyncs = 0;
};

SessionReplay replay_sessions(Tracer& tracer, const Args& args,
                              const SeededSessions& seeded,
                              std::size_t count, const char* dir_name) {
  const fs::path dir = fs::path(args.workdir) / dir_name;
  fresh_dir(dir);
  fs::copy_file(seeded.journal / "journal.wal", dir / "journal.wal");
  persist::SessionJournal journal({.dir = dir.string()});
  const persist::RecoveredState recovered = tracer.scoped(
      "persist.replay", -1, -1, [&] { return journal.replay(); });
  api::SchedulingService service(service_config(&journal));
  service.restore_sessions(recovered);
  journal.snapshot();
  const std::uint64_t fsyncs_before = journal.stats().fsyncs;

  SessionReplay replay;
  std::vector<SessionState> sessions = seeded.sessions;
  struct InFlight {
    int slot;
    long long id;
    int root;
    int service;
    api::SolveHandle handle;
  };
  std::deque<InFlight> window;
  const auto submit = [&](int slot) {
    SessionState& s = sessions[static_cast<std::size_t>(slot)];
    if (s.next >= seeded.sessions[static_cast<std::size_t>(slot)].next + count)
      return;
    const model::Delta& delta = s.input().deltas[s.next];
    const long long id = trace_id(slot, static_cast<long long>(s.next));
    const int root = tracer.begin("request", id);
    const std::string frame =
        tracer.scoped("serialize.request_encode", id, root, [&] {
          return R"({"type":"delta","id":")" + std::to_string(id) +
                 R"(","session":)" + std::to_string(s.id) + R"(,"delta":)" +
                 api::to_json(delta).dump() + "}";
        });
    model::Delta decoded =
        tracer.scoped("serialize.delta_decode", id, root, [&] {
          return api::delta_from_json(util::Json::parse(frame).at("delta"));
        });
    s.pending = model::apply_delta(s.instance, delta);
    ++s.next;
    const int span = tracer.begin("service.submit_wait", id, root);
    window.push_back(InFlight{slot, id, root, span,
                              service.submit(api::make_delta_request(
                                  s.id, std::move(decoded)))});
  };
  const Clock::time_point start = Clock::now();
  const WorkerCpu workers;
  submit(0);
  while (!window.empty()) {
    InFlight f = std::move(window.front());
    window.pop_front();
    const api::SolveResult& result = f.handle.wait();
    tracer.end(f.service);
    const std::string text =
        tracer.scoped("serialize.result_encode", f.id, f.root,
                      [&] { return api::to_json(result).dump(); });
    api::SolveResult back =
        tracer.scoped("serialize.result_decode", f.id, f.root, [&] {
          return api::solve_result_from_json(util::Json::parse(text));
        });
    SessionState& s = sessions[static_cast<std::size_t>(f.slot)];
    tracer.scoped("check", f.id, f.root, [&] {
      double makespan = 0.0;
      if (check_schedule(s.pending, back, &makespan).empty()) {
        s.instance = std::move(s.pending);
        s.schedule = std::move(back.schedule);
      } else {
        ++replay.failed;
      }
    });
    tracer.end(f.root);
    ++replay.deltas;
    submit((f.slot + 1) % static_cast<int>(sessions.size()));
  }
  replay.wall_seconds = seconds_since(start);
  replay.service_cpu_us =
      1e6 * ratio(workers.seconds(), static_cast<double>(replay.deltas));
  replay.fsyncs = static_cast<double>(journal.stats().fsyncs - fsyncs_before);
  return replay;
}

/// The same deltas applied by a bare ScheduleSession (no service, no
/// journal), with model::apply_delta and the journal append timed beside
/// it on a journal of its own.
struct OnlineBreakdown {
  online::SessionStats stats;
  double commit_bytes = 0;  ///< appended by record_commit
  std::uint64_t commits = 0;
};

OnlineBreakdown online_breakdown(Tracer& tracer, const Args& args,
                                 const SeededSessions& seeded,
                                 std::size_t count) {
  OnlineBreakdown out;
  const fs::path dir = fs::path(args.workdir) / "append-journal";
  fresh_dir(dir);
  persist::SessionJournal journal({.dir = dir.string()});
  journal.replay();
  online::SessionOptions tuning;
  tuning.solve = seeded.sessions.front().input().open_request.options;
  tuning.solvers = seeded.sessions.front().input().open_request.solvers;
  tuning.regret_bound = kRegretBound;
  for (std::size_t slot = 0; slot < seeded.sessions.size(); ++slot) {
    const SessionState& s = seeded.sessions[slot];
    tuning.solve.seed = s.input().open_request.options.seed;
    // Revisions count from 0 here: this journal starts at the open record.
    online::ScheduleSession session(s.instance, s.schedule, tuning);
    journal.record_open(s.id, s.epoch, s.instance, tuning, s.schedule);
    const std::uint64_t opened_bytes = journal.stats().bytes_appended;
    model::Instance instance = s.instance;
    std::uint64_t committed = 0;
    for (std::size_t i = s.next;
         i < s.next + count && i < s.input().deltas.size(); ++i) {
      const model::Delta& delta = s.input().deltas[i];
      const long long id = trace_id(static_cast<int>(slot),
                                    static_cast<long long>(i));
      const int root = tracer.begin("online.request", id);
      instance = tracer.scoped("model.apply_delta", id, root, [&] {
        return model::apply_delta(instance, delta);
      });
      const api::SolveResult result = tracer.scoped(
          "online.apply", id, root, [&] { return session.apply(delta); });
      if (session.revision() > committed) {
        tracer.scoped("persist.commit_append", id, root, [&] {
          journal.record_commit(s.id, session.revision(), delta,
                                session.schedule(), &session.instance());
        });
        committed = session.revision();
        ++out.commits;
      }
      tracer.end(root);
    }
    out.commit_bytes += static_cast<double>(journal.stats().bytes_appended -
                                            opened_bytes);
    const online::SessionStats& stats = session.stats();
    out.stats.deltas += stats.deltas;
    out.stats.noops += stats.noops;
    out.stats.memo_hits += stats.memo_hits;
    out.stats.repairs += stats.repairs;
    out.stats.region_resolves += stats.region_resolves;
    out.stats.fresh_solves += stats.fresh_solves;
    out.stats.total_moved_jobs += stats.total_moved_jobs;
  }
  return out;
}

int run_traced(const Args& args, const Workload& workload) {
  const double warmup = std::clamp(0.1 * args.seconds, 0.2, 2.0);
  const double wire_seconds = std::max(0.5, 0.4 * args.seconds);
  std::vector<Metric> metrics;
  Tracer untraced(false);
  Tracer tracer(true);
  std::uint64_t attempted = 0, failed = 0;
  double overhead_us = 0.0;
  // Layer costs on the path of one request inside the server, for the
  // share of server CPU the replay cannot attribute (poll loop, syscalls).
  double server_path_us = 0.0;
  double cpu_us_per_req = 0.0;

  // Every metric the benchmark defines; layers a workload bypasses stay 0.
  std::map<std::string, Metric> layer;
  const auto set = [&](const std::string& name, double value,
                       const std::string& unit) {
    layer[name] = Metric{name, value, unit};
  };
  for (const auto& [name, unit] :
       std::vector<std::pair<std::string, std::string>>{
           {"serialize.request_decode_us", "us"},
           {"serialize.request_encode_us", "us"},
           {"serialize.result_encode_us", "us"},
           {"serialize.result_decode_us", "us"},
           {"serialize.delta_decode_us", "us"},
           {"service.handoff_us", "us"},
           {"service.session_overhead_us", "us"},
           {"service.queue_wait_ms", "ms"},
           {"service.cpu_us", "us"},
           {"cache.hit_ratio", "ratio"},
           {"cache.dedup_shared", "ratio"},
           {"cache.canonicalize_us", "us"},
           {"cache.hit_us", "us"},
           {"eptas.solve_ms", "ms"},
           {"eptas.guesses_per_solve", "count"},
           {"eptas.probes_per_solve", "count"},
           {"eptas.memo_hits_per_solve", "count"},
           {"eptas.fallback_ratio", "ratio"},
           {"eptas.classify_ms", "ms"},
           {"eptas.transform_ms", "ms"},
           {"eptas.patterns_ms", "ms"},
           {"eptas.master_ms", "ms"},
           {"eptas.placement_ms", "ms"},
           {"eptas.small_jobs_ms", "ms"},
           {"eptas.medium_ms", "ms"},
           {"eptas.lift_ms", "ms"},
           {"eptas.columns_per_solve", "count"},
           {"lp.iterations_per_solve", "count"},
           {"milp.nodes_per_solve", "count"},
           {"sched.greedy_bags_us", "us"},
           {"online.apply_us", "us"},
           {"online.moved_jobs_per_delta", "count"},
           {"online.noop_ratio", "ratio"},
           {"online.memo_ratio", "ratio"},
           {"online.repair_ratio", "ratio"},
           {"online.region_ratio", "ratio"},
           {"online.fresh_ratio", "ratio"},
           {"persist.commit_append_us", "us"},
           {"persist.bytes_per_commit", "B"},
           {"persist.fsyncs", "per_commit"},
           {"persist.replay_ms", "ms"},
           {"model.apply_delta_us", "us"},
       }) {
    set(name, 0.0, unit);
  }
  const auto record_wire = [&](const WirePhase& wire) {
    attempted += wire.loop.attempted;
    failed += wire.loop.failed;
    cpu_us_per_req = wire.cpu_us_per_req;
  };
  const auto record_serialize = [&](bool session) {
    set(session ? "serialize.delta_decode_us" : "serialize.request_decode_us",
        mean_us(tracer, session ? "serialize.delta_decode"
                                : "serialize.request_decode"),
        "us");
    set("serialize.request_encode_us",
        mean_us(tracer, "serialize.request_encode"), "us");
    set("serialize.result_encode_us", mean_us(tracer, "serialize.result_encode"),
        "us");
    set("serialize.result_decode_us", mean_us(tracer, "serialize.result_decode"),
        "us");
  };

  if (workload.name == "session-journal") {
    const SeededSessions seeded =
        seed_sessions(args, warmup + wire_seconds + 1.0);
    std::vector<SessionState> sessions = seeded.sessions;
    SessionTraffic traffic(sessions, SIZE_MAX, /*rotate=*/true);
    const WirePhase wire =
        wire_phase(args, traffic, &seeded, warmup, wire_seconds, &metrics);
    record_wire(wire);
    // The rest of each slot's first session: the deltas the wire phase
    // sent right after resuming it.
    const std::size_t count = kSessionDeltas - kSeedDeltas;
    const SessionReplay plain =
        replay_sessions(untraced, args, seeded, count, "replay-untraced");
    const SessionReplay traced =
        replay_sessions(tracer, args, seeded, count, "replay-traced");
    const OnlineBreakdown online = online_breakdown(tracer, args, seeded, count);
    failed += plain.failed + traced.failed;
    attempted += plain.deltas + traced.deltas;
    overhead_us = 1e6 * (traced.wall_seconds - plain.wall_seconds) /
                  static_cast<double>(std::max<std::uint64_t>(1, traced.deltas));
    record_serialize(true);
    const double deltas = static_cast<double>(online.stats.deltas);
    const double apply_us = mean_us(tracer, "online.apply");
    set("service.session_overhead_us",
        mean_us(tracer, "service.submit_wait") - apply_us, "us");
    set("online.apply_us", apply_us, "us");
    set("online.moved_jobs_per_delta",
        ratio(static_cast<double>(online.stats.total_moved_jobs), deltas),
        "count");
    set("online.noop_ratio", ratio(online.stats.noops, deltas), "ratio");
    set("online.memo_ratio", ratio(online.stats.memo_hits, deltas), "ratio");
    set("online.repair_ratio", ratio(online.stats.repairs, deltas), "ratio");
    set("online.region_ratio", ratio(online.stats.region_resolves, deltas),
        "ratio");
    set("online.fresh_ratio", ratio(online.stats.fresh_solves, deltas),
        "ratio");
    set("persist.commit_append_us", mean_us(tracer, "persist.commit_append"),
        "us");
    set("persist.bytes_per_commit",
        ratio(online.commit_bytes, static_cast<double>(online.commits)),
        "B");
    set("persist.fsyncs",
        ratio(traced.fsyncs, static_cast<double>(traced.deltas)),
        "per_commit");
    set("persist.replay_ms", mean_us(tracer, "persist.replay") / 1e3, "ms");
    set("model.apply_delta_us", mean_us(tracer, "model.apply_delta"), "us");
    set("service.cpu_us", traced.service_cpu_us, "us");
    server_path_us = mean_us(tracer, "serialize.delta_decode") +
                     traced.service_cpu_us +
                     mean_us(tracer, "serialize.result_encode");
    const double append_us = mean_us(tracer, "persist.commit_append");
    std::cout << "  server CPU per delta " << format_value(cpu_us_per_req)
              << " us = service workers "
              << format_value(traced.service_cpu_us) << " (online.apply "
              << format_value(apply_us) << " + journal append "
              << format_value(append_us) << " + the rest "
              << format_value(traced.service_cpu_us - apply_us - append_us)
              << ") + delta decode and result encode "
              << format_value(server_path_us - traced.service_cpu_us)
              << " + poll loop and syscalls "
              << format_value(cpu_us_per_req - server_path_us) << "\n";
  } else {
    const bool eptas_cache = workload.name == "eptas-cache";
    std::vector<SolveInput> pool;
    std::unique_ptr<EptasStream> stream;
    std::function<const SolveInput&(std::size_t)> at;
    if (eptas_cache) {
      stream = std::make_unique<EptasStream>(args.seed);
      at = [&stream](std::size_t k) -> const SolveInput& {
        return stream->at(k);
      };
    } else {
      pool = wire_small_pool(args.seed);
      at = [&pool](std::size_t k) -> const SolveInput& {
        return pool[k % pool.size()];
      };
    }
    SolveTraffic traffic(workload.depth, at);
    const WirePhase wire =
        wire_phase(args, traffic, nullptr, warmup, wire_seconds, &metrics);
    record_wire(wire);
    const std::size_t count = std::min<std::size_t>(
        eptas_cache ? 150 : 20000, wire.loop.completions.size());
    const SolveReplay plain = replay_solves(untraced, at, count, workload.depth);
    const SolveReplay traced = replay_solves(tracer, at, count, workload.depth);
    failed += plain.failed + traced.failed;
    attempted += 2 * count;
    overhead_us = 1e6 * (traced.wall_seconds - plain.wall_seconds) /
                  static_cast<double>(std::max<std::size_t>(1, count));
    record_serialize(false);
    set("service.queue_wait_ms", traced.queue_wait_ms, "ms");
    set("service.cpu_us", traced.service_cpu_us, "us");
    server_path_us = mean_us(tracer, "serialize.request_decode") +
                     traced.service_cpu_us +
                     mean_us(tracer, "serialize.result_encode");
    if (eptas_cache) {
      const double answered = static_cast<double>(wire.loop.timed().size());
      set("cache.hit_ratio",
          ratio(counter_delta(wire.loop, "service", "cache_hits"), answered),
          "ratio");
      set("cache.dedup_shared",
          ratio(counter_delta(wire.loop, "service", "dedup_shared"), answered),
          "ratio");
      for (std::size_t k = 0; k < count; ++k) {
        const SolveInput& input = at(k);
        tracer.scoped("cache.canonicalize", static_cast<long long>(k), -1, [&] {
          return cache::Canonicalizer::exact(*input.request.instance)
                     .job_at.size() +
                 cache::Canonicalizer::rounded(*input.request.instance,
                                               input.request.options.eps)
                     .job_at.size();
        });
      }
      set("cache.canonicalize_us", mean_us(tracer, "cache.canonicalize"), "us");
      set("cache.hit_us", traced.hit_service_us, "us");
      const EptasBreakdown e =
          eptas_breakdown(tracer, *stream, count, std::max(1.0, args.seconds / 4));
      const double solves = static_cast<double>(e.solves);
      const double staged = static_cast<double>(e.staged);
      set("eptas.solve_ms", mean_us(tracer, "eptas.solve") / 1e3, "ms");
      set("eptas.guesses_per_solve", ratio(e.guesses, solves), "count");
      set("eptas.probes_per_solve", ratio(e.probes, solves), "count");
      set("eptas.memo_hits_per_solve", ratio(e.memo_hits, solves), "count");
      set("eptas.fallback_ratio", ratio(e.fallbacks, solves), "ratio");
      for (const char* stage : {"classify", "transform", "patterns", "master",
                                "placement", "small_jobs", "medium", "lift"}) {
        const std::string name = std::string("eptas.") + stage;
        set(name + "_ms", mean_us(tracer, name) / 1e3, "ms");
      }
      set("eptas.columns_per_solve", ratio(e.columns, staged), "count");
      set("lp.iterations_per_solve", ratio(e.lp_iterations, staged), "count");
      set("milp.nodes_per_solve", ratio(e.milp_nodes, staged), "count");
      std::cout << "  eptas: " << e.solves << " fresh instances solved, "
                << e.staged << " final guesses replayed stage by stage\n";
    } else {
      const SequentialSolves seq =
          sequential_solves(tracer, at, std::min<std::size_t>(count, 2000));
      set("service.handoff_us", seq.handoff_us, "us");
      set("sched.greedy_bags_us", seq.greedy_us, "us");
    }
  }

  metrics.push_back({"net.loop_cpu_us",
                     workload.name == "eptas-cache"
                         ? 0.0
                         : cpu_us_per_req - server_path_us,
                     "us"});
  for (auto& [name, metric] : layer) metrics.push_back(metric);
  metrics.push_back({"trace.overhead_us", overhead_us, "us"});

  const std::string nesting = tracer.check_nesting();
  const std::string spans_path = args.workdir + "/spans.jsonl";
  tracer.write_jsonl(spans_path);
  std::cout << "  spans: " << tracer.spans().size() << " written to "
            << spans_path << "; nesting "
            << (nesting.empty() ? "ok" : "BROKEN: " + nesting) << "\n";
  const bool correct = failed == 0 && nesting.empty();
  print_report(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args args;
  const std::vector<std::string> list(argv + 1, argv + argc);
  for (std::size_t i = 0; i + 1 < list.size(); i += 2) {
    const std::string& flag = list[i];
    const std::string& value = list[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (list.size() % 2 != 0 || args.server.empty() || args.workdir.empty() ||
      !(args.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_loadgen --workload W --seed N --seconds S "
        "--trace 0|1 --server PATH --workdir DIR");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = workload_of(args.workload);
    fresh_dir(args.workdir);
    const unsigned nproc = std::thread::hardware_concurrency();
    std::cout << "perfbench workload=" << workload.name
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "  client threads " << kClientThreads << ", server workers "
              << kServerWorkers << ", nproc " << nproc << "\n";
    if (kClientThreads + kServerWorkers > static_cast<int>(nproc)) {
      std::cout << "  client threads + server workers exceed nproc\n";
      return 1;
    }
    return args.trace ? run_traced(args, workload)
                      : run_end_to_end(args, workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_loadgen: " << error.what() << "\n";
    return 1;
  }
}
