// A sched_server child process under benchmark: spawned from its binary,
// timed until it serves requests, sampled through /proc while it runs, and
// stopped (and reaped) before the benchmark exits.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative counters of one process, read from /proc/<pid>.
struct ProcSample {
  double cpu_seconds = 0.0;        ///< utime + stime of every thread
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, all threads
  std::uint64_t syscalls = 0;      ///< syscr + syscw
};

class ServerProcess {
 public:
  /// Spawns `binary` with `args` (plus --port 0), stderr appended to
  /// `log_path`, and returns once it serves: it has printed its listening
  /// line, with `journal` also its recovery line, and answered a ping.
  /// Throws std::runtime_error when it exits or stays silent for 60 s.
  ServerProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& log_path, bool journal);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// From spawning until the first pong.
  double setup_seconds() const { return setup_seconds_; }

  ProcSample sample() const;
  /// utime + stime of every thread; cheaper than sample().
  double cpu_seconds() const;
  /// VmHWM, in MiB.
  double peak_rss_mib() const;

  /// SIGTERM and a graceful drain; SIGKILL when it has not exited in 10 s.
  void stop();
  /// SIGKILL: a crash, as far as the journal can tell.
  void kill();

 private:
  void await_ready(std::chrono::steady_clock::time_point start,
                   const std::string& log_path, bool journal);
  void reap(double timeout_seconds);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_seconds_ = 0.0;
};

/// Host-wide CPU time split, from the first line of /proc/stat.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu read_host_cpu();

}  // namespace perfbench
