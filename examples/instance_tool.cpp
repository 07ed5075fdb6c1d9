// instance_tool — command-line front end for the library.
//
//   $ ./instance_tool gen <family> <n> <m> <seed> <out.instance>
//   $ ./instance_tool solve <in.instance> <eps> [solver] [out.schedule]
//                     [--json] [--deadline <s>] [--progress] [--cache-stats]
//                     [--threads <n>] [--connect <host:port>] [--portfolio]
//   $ ./instance_tool delta <in.instance> <eps> <delta.json>...
//                     [--json] [--regret <r>] [--connect <host:port>]
//                     [--keep-open]
//   $ ./instance_tool check <in.instance> <in.schedule>
//   $ ./instance_tool info <in.instance>
//   $ ./instance_tool solvers
//   $ ./instance_tool metrics <host:port> [--recovery]
//   $ ./instance_tool jsoncheck <file.json>
//
// Covers the full user workflow through the unified API: generate a
// workload, schedule it asynchronously through the SchedulingService with
// any registered solver (or the whole portfolio via --portfolio), stream
// progress, enforce a deadline, emit machine-readable JSON, replay instance
// deltas through an online ScheduleSession (`delta`), validate any schedule
// against an instance, and inspect bounds. With --connect the solve or
// session runs on a remote sched_server over the NDJSON wire protocol
// instead of in-process, and `metrics` scrapes a server's Prometheus
// endpoint (`--recovery` narrows it to the durability/session-resume
// counter families).
//
// Each subcommand is its own handler behind a dispatch table.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/serialize.h"
#include "model/delta.h"
#include "model/io.h"
#include "net/client.h"
#include "online/session.h"
#include "util/json.h"

namespace {

int usage() {
  std::cerr <<
      "usage:\n"
      "  instance_tool gen <family> <n> <m> <seed> <out.instance>\n"
      "  instance_tool solve <in.instance> <eps> [solver] [out.schedule]\n"
      "                [--json] [--deadline <s>] [--progress]\n"
      "                [--cache-stats] [--threads <n>]\n"
      "                [--connect <host:port>] [--portfolio]\n"
      "  instance_tool delta <in.instance> <eps> <delta.json>...\n"
      "                [--json] [--regret <r>] [--connect <host:port>]\n"
      "                [--keep-open]\n"
      "  instance_tool check <in.instance> <in.schedule>\n"
      "  instance_tool info <in.instance>\n"
      "  instance_tool solvers\n"
      "  instance_tool metrics <host:port> [--recovery]\n"
      "  instance_tool jsoncheck <file.json>\n"
      "families:";
  for (const auto& family : bagsched::api::instance_families()) {
    std::cerr << " " << family;
  }
  std::cerr << "\nsolvers:";
  for (const auto& name : bagsched::api::SolverRegistry::global().names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

/// Flags shared by the solving subcommands; stripped from argv before the
/// positional arguments are counted.
struct Flags {
  bool json = false;
  bool progress = false;
  bool portfolio = false;    ///< race the whole portfolio (no single solver)
  bool cache_stats = false;  ///< solve with cache_mode=read-write twice and
                             ///< report the cache/dedup counters
  double deadline_seconds = -1.0;  ///< < 0 = no deadline
  double regret = -1.0;  ///< session regret bound; < 0 = library default
  int threads = 0;  ///< SolveOptions::num_threads (0 = hardware)
  bool keep_open = false;  ///< delta --connect: skip the clean
                           ///< session_close, leaving the server to orphan
                           ///< the session on disconnect (smoke tests use
                           ///< this to exercise linger + crash recovery)
  std::string connect;  ///< non-empty: solve on a remote sched_server
};

Flags extract_flags(std::vector<std::string>& args) {
  Flags flags;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      flags.json = true;
    } else if (args[i] == "--progress") {
      flags.progress = true;
    } else if (args[i] == "--portfolio") {
      flags.portfolio = true;
    } else if (args[i] == "--cache-stats") {
      flags.cache_stats = true;
    } else if (args[i] == "--keep-open") {
      flags.keep_open = true;
    } else if (args[i] == "--deadline" && i + 1 < args.size()) {
      flags.deadline_seconds = std::stod(args[++i]);
    } else if (args[i] == "--regret" && i + 1 < args.size()) {
      flags.regret = std::stod(args[++i]);
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      flags.threads = std::stoi(args[++i]);
    } else if (args[i] == "--connect" && i + 1 < args.size()) {
      flags.connect = args[++i];
    } else {
      positional.push_back(args[i]);
    }
  }
  args = std::move(positional);
  return flags;
}

void print_result(const bagsched::api::SolveResult& result) {
  std::cout << result.solver << ": " << bagsched::api::to_string(result.status)
            << ", makespan " << result.makespan << " (lower bound "
            << result.lower_bound << ", gap "
            << 100.0 * result.optimality_gap << "%, "
            << result.wall_seconds << " s)\n";
}

bagsched::api::ProgressFn progress_printer() {
  return [](const bagsched::api::ProgressEvent& event) {
    std::cerr << "[" << event.elapsed_seconds << "s] #" << event.request_id
              << " " << bagsched::api::to_string(event.kind);
    if (!event.solver.empty()) std::cerr << " " << event.solver;
    if (event.kind == bagsched::api::ProgressKind::Incumbent) {
      std::cerr << " makespan " << event.incumbent_makespan;
    }
    if (event.kind == bagsched::api::ProgressKind::Phase) {
      std::cerr << " phase=" << event.phase;
    }
    std::cerr << "\n";
  };
}

/// Remote mode (--connect): the same request goes to a sched_server over
/// the NDJSON wire protocol; progress frames stream back through the usual
/// printer. A wall-clock deadline cannot cross the wire, so --deadline
/// maps onto options.time_limit_seconds, enforced server-side. With
/// --cache-stats the request is replayed and the server's stats frame is
/// reported instead of in-process counters.
bagsched::api::SolveResult run_remote(bagsched::api::SolveRequest request,
                                      const Flags& flags) {
  namespace api = bagsched::api;
  if (flags.deadline_seconds >= 0.0) {
    request.options.time_limit_seconds = flags.deadline_seconds;
  }
  if (flags.cache_stats) {
    request.options.cache_mode = api::CacheMode::ReadWrite;
  }
  auto client = bagsched::net::Client::connect(flags.connect);
  const api::ProgressFn printer =
      flags.progress ? progress_printer() : api::ProgressFn{};
  api::SolveResult result =
      client.solve(request, "1", flags.progress, printer);
  if (flags.cache_stats) {
    const auto replayed = client.solve(request, "2");
    const auto stats = client.stats();
    const bagsched::util::Json& service = stats.at("service");
    std::cerr << "server: " << service.at("cache_hits").as_int()
              << " cache hits ("
              << service.at("cache_rounded_hits").as_int() << " rounded), "
              << service.at("dedup_shared").as_int()
              << " single-flight shared\n"
              << "replay "
              << (api::stat_bool(replayed.stats, "cache_hit")
                      ? "hit the cache"
                      : "MISSED the cache")
              << "\n";
  }
  return result;
}

/// Submits one request and waits — the async workflow in its smallest form.
/// With --cache-stats, the request runs with cache_mode=read-write and is
/// submitted twice (solve, then replay): the second pass must come back as
/// a cache hit, and the cache/dedup counters are reported on stderr.
bagsched::api::SolveResult run_via_service(bagsched::api::SolveRequest request,
                                           const Flags& flags) {
  if (!flags.connect.empty()) return run_remote(std::move(request), flags);
  if (flags.deadline_seconds >= 0.0) {
    request.deadline = bagsched::api::deadline_in(flags.deadline_seconds);
  }
  if (flags.progress) request.on_progress = progress_printer();
  if (flags.cache_stats) {
    request.options.cache_mode = bagsched::api::CacheMode::ReadWrite;
  }
  // One request, one slot: no point spawning hardware_concurrency workers
  // (the portfolio path parallelises inside its own nested service).
  bagsched::api::SchedulingService service(
      {.num_threads = 1, .max_concurrent = 1});
  bagsched::api::SolveRequest replay = request;
  auto handle = service.submit(std::move(request));
  bagsched::api::SolveResult result = handle.wait();
  if (flags.cache_stats) {
    // The replay only probes the cache; the reported result stays the
    // first solve's (a replay can differ, e.g. under an expired
    // --deadline).
    const auto replayed = service.submit(std::move(replay)).wait();
    const auto service_stats = service.stats();
    const auto cache_stats = service.cache_stats();
    std::cerr << "cache: " << cache_stats.entries << " entries, "
              << cache_stats.bytes << " bytes, " << cache_stats.hits
              << " hits / " << cache_stats.misses << " misses, "
              << cache_stats.evictions << " evicted\n"
              << "service: " << service_stats.cache_hits << " cache hits ("
              << service_stats.cache_rounded_hits << " rounded), "
              << service_stats.dedup_shared << " single-flight shared\n"
              << "replay "
              << (bagsched::api::stat_bool(replayed.stats, "cache_hit")
                      ? "hit the cache"
                      : "MISSED the cache")
              << "\n";
  }
  return result;
}

// --- Subcommand handlers ---------------------------------------------------

int cmd_gen(std::vector<std::string>& args) {
  using namespace bagsched;
  if (args.size() != 5) return usage();
  api::SolveOptions options;
  options.seed = std::stoull(args[3]);
  const auto instance = api::make_instance(
      args[0], std::stoi(args[1]), std::stoi(args[2]), options);
  model::save_instance(args[4], instance);
  std::cout << "wrote " << args[4] << ": " << model::describe(instance)
            << "\n";
  return 0;
}

int cmd_solve(std::vector<std::string>& args) {
  using namespace bagsched;
  const Flags flags = extract_flags(args);
  const bool single = !flags.portfolio;
  if (args.size() < 2 || args.size() > (single ? 4u : 2u)) {
    return usage();
  }
  const auto instance = model::load_instance(args[0]);
  api::SolveOptions options;
  options.eps = std::stod(args[1]);
  options.num_threads = flags.threads;
  std::vector<std::string> solvers;
  if (single) {
    solvers.push_back(args.size() >= 3 ? args[2] : "eptas");
  }
  const auto result = run_via_service(
      api::make_request(instance, options, solvers), flags);
  if (flags.progress && result.solver == "eptas") {
    // Per-guess probe lines already streamed as Phase events; close
    // with the search's aggregate probe telemetry.
    std::cerr << "guess search: "
              << api::stat_int(result.stats, "guesses")
              << " consumed, "
              << api::stat_int(result.stats, "probes_launched")
              << " launched, "
              << api::stat_int(result.stats, "probes_memo_hits")
              << " memo hits\n";
  }
  if (single && args.size() == 4 && result.schedule.num_jobs() > 0) {
    std::ofstream out(args[3]);
    model::write_schedule(out, result.schedule);
    if (!flags.json) std::cout << "wrote " << args[3] << "\n";
  }
  if (flags.json) {
    std::cout << api::to_json(result).dump(2) << "\n";
    return result.ok() || result.schedule_feasible ? 0 : 1;
  }
  if (!result.ok() && !result.schedule_feasible) {
    std::cerr << "error: "
              << (result.error.empty()
                      ? std::string(api::to_string(result.status))
                      : result.error)
              << "\n";
    return 1;
  }
  if (!single) {
    // Per-member lines, recovered from the service's telemetry.
    const std::string runs_json =
        api::stat_str(result.stats, "portfolio_runs_json");
    if (!runs_json.empty()) {
      const util::Json runs = util::Json::parse(runs_json);
      for (const auto& run_json : runs.as_array()) {
        print_result(api::solve_result_from_json(run_json));
      }
    }
    std::cout << "winner: " << result.solver << " at " << result.makespan
              << " (" << api::stat_int(result.stats,
                                       "portfolio_cancelled")
              << " cancelled)\n";
    return 0;
  }
  print_result(result);
  return result.schedule_feasible ? 0 : 1;
}

bagsched::model::Delta load_delta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return bagsched::api::delta_from_json(
      bagsched::util::Json::parse(buffer.str()));
}

void print_delta_result(std::size_t step,
                        const bagsched::api::SolveResult& result) {
  namespace api = bagsched::api;
  std::cout << "delta " << step << ": "
            << api::stat_str(result.stats, "online.path", "?") << ", "
            << api::to_string(result.status) << ", makespan "
            << result.makespan << " (lower bound " << result.lower_bound
            << "), moved " << result.moved_jobs << " jobs ("
            << 100.0 * result.migration_ratio << "% of survivors)\n";
}

/// `delta` — replay instance deltas through an online ScheduleSession:
/// open a session on the instance (fresh portfolio solve), apply each
/// delta JSON file in order, and report the repair path, makespan and
/// migration cost per step. With --connect, the session lives on a remote
/// sched_server and the deltas travel as v2 wire frames.
int cmd_delta(std::vector<std::string>& args) {
  using namespace bagsched;
  const Flags flags = extract_flags(args);
  if (args.size() < 3) return usage();
  const auto instance = model::load_instance(args[0]);
  api::SolveOptions options;
  options.eps = std::stod(args[1]);
  options.num_threads = flags.threads;
  std::vector<std::string> delta_files(args.begin() + 2, args.end());

  util::Json report = util::Json::array();
  bool all_ok = true;
  if (!flags.connect.empty()) {
    auto client = net::Client::connect(flags.connect);
    const auto session = client.open_session(
        api::make_request(instance, options), "open", flags.regret);
    if (!flags.json) {
      std::cout << "session " << session.id << ": initial makespan "
                << session.initial.makespan << "\n";
    }
    std::size_t step = 0;
    for (const auto& file : delta_files) {
      const auto result = client.delta(session.id, load_delta(file),
                                       "d" + std::to_string(step));
      all_ok = all_ok && result.ok();
      if (flags.json) {
        report.push_back(api::to_json(result, /*include_schedule=*/false));
      } else {
        print_delta_result(step, result);
      }
      ++step;
    }
    if (flags.keep_open) {
      // Deliberately drop the connection without session_close: the
      // server parks the session in its linger window, and (with a
      // journal) it survives a crash for resume_session to reclaim.
      if (!flags.json) {
        std::cout << "session " << session.id << " epoch " << session.epoch
                  << " left open\n";
      }
    } else {
      client.close_session(session.id);
    }
  } else {
    online::SessionOptions tuning;
    tuning.solve = options;
    if (flags.regret >= 0.0) tuning.regret_bound = flags.regret;
    online::ScheduleSession session(instance, tuning);
    if (!flags.json) {
      std::cout << "session: initial makespan " << session.makespan()
                << " (lower bound " << session.lower_bound() << ")\n";
    }
    std::size_t step = 0;
    for (const auto& file : delta_files) {
      const auto result = session.apply(load_delta(file));
      all_ok = all_ok && result.ok();
      if (flags.json) {
        report.push_back(api::to_json(result, /*include_schedule=*/false));
      } else {
        print_delta_result(step, result);
      }
      ++step;
    }
  }
  if (flags.json) std::cout << report.dump(2) << "\n";
  return all_ok ? 0 : 1;
}

int cmd_check(std::vector<std::string>& args) {
  using namespace bagsched;
  if (args.size() != 2) return usage();
  const auto instance = model::load_instance(args[0]);
  std::ifstream in(args[1]);
  const auto schedule = model::read_schedule(in);
  const auto validation = model::validate(instance, schedule);
  if (validation.ok()) {
    std::cout << "valid, makespan " << schedule.makespan(instance) << "\n";
    return 0;
  }
  std::cout << "INVALID: " << validation.message << " ("
            << validation.unassigned_jobs << " unassigned, "
            << validation.bag_conflicts << " bag conflicts)\n";
  return 1;
}

int cmd_info(std::vector<std::string>& args) {
  using namespace bagsched;
  if (args.size() != 1) return usage();
  const auto instance = model::load_instance(args[0]);
  std::cout << model::describe(instance) << "\n"
            << "area bound    " << model::area_lower_bound(instance)
            << "\npmax bound    " << model::pmax_lower_bound(instance)
            << "\npairing bound "
            << model::pairing_lower_bound(instance) << "\ncombined      "
            << model::combined_lower_bound(instance) << "\nfeasible      "
            << (instance.is_feasible() ? "yes" : "no") << "\n";
  return 0;
}

int cmd_solvers(std::vector<std::string>& args) {
  using namespace bagsched;
  if (!args.empty()) return usage();
  for (const auto* solver : api::SolverRegistry::global().all()) {
    const auto& info = solver->info();
    std::cout << info.name << "\t" << api::to_string(info.guarantee)
              << "\t" << info.guarantee_text << "\t(" << info.typical_scale
              << ")\t" << info.summary << "\n";
  }
  return 0;
}

int cmd_metrics(std::vector<std::string>& args) {
  using namespace bagsched;
  bool recovery_only = false;
  if (!args.empty() && args.back() == "--recovery") {
    recovery_only = true;
    args.pop_back();
  }
  if (args.size() != 1) return usage();
  const auto [host, port] = net::parse_hostport(args[0]);
  const std::string body = net::fetch_metrics(host, port);
  if (!recovery_only) {
    std::cout << body;
    return 0;
  }
  // The durability story at a glance: the journal family plus the
  // session-lifecycle counters resume/orphan/recovery gating adds. A
  // server running without --journal-dir has no bagsched_journal_*
  // series, so operators can tell "journaling off" from "journaling
  // idle" by the families present.
  const char* const kPrefixes[] = {
      "bagsched_journal_",
      "bagsched_server_session_resumes",
      "bagsched_server_resume_rejects",
      "bagsched_server_sessions_orphaned",
      "bagsched_server_orphans_expired",
      "bagsched_server_recovering_rejects",
  };
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    for (const char* prefix : kPrefixes) {
      if (line.rfind(prefix, 0) == 0) {
        std::cout << line << "\n";
        break;
      }
    }
  }
  return 0;
}

int cmd_jsoncheck(std::vector<std::string>& args) {
  // Strict-parse a JSON document (e.g. a BENCH_*.json emitted by the
  // bench harness) through util::Json; CI uses this to make sure the
  // perf tooling's output cannot silently rot.
  if (args.size() != 1) return usage();
  std::ifstream in(args[0]);
  if (!in) {
    std::cerr << "jsoncheck: cannot open " << args[0] << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = bagsched::util::Json::parse(buffer.str());
  std::cout << args[0] << ": valid JSON ("
            << (parsed.is_object() ? "object" : "non-object")
            << ", " << buffer.str().size() << " bytes)\n";
  return 0;
}

struct Command {
  const char* name;
  int (*run)(std::vector<std::string>&);
};

constexpr Command kCommands[] = {
    {"gen", cmd_gen},         {"solve", cmd_solve},
    {"delta", cmd_delta},     {"check", cmd_check},
    {"info", cmd_info},       {"solvers", cmd_solvers},
    {"metrics", cmd_metrics}, {"jsoncheck", cmd_jsoncheck},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    for (const Command& entry : kCommands) {
      if (command == entry.name) return entry.run(args);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
