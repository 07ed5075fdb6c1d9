#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/client.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The number after `key` in a "key:\tvalue" /proc file; 0 when absent.
std::uint64_t proc_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size()));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& log_path, bool journal) {
  args.insert(args.begin(), binary);
  args.push_back("--port");
  args.push_back("0");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2] = {-1, -1};
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  const Clock::time_point start = Clock::now();
  const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(out[0]);
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(spawned));
  }
  stdout_fd_ = out[0];
  try {
    await_ready(start, log_path, journal);
  } catch (...) {
    kill();
    throw;
  }
  setup_seconds_ = seconds_since(start);
}

void ServerProcess::await_ready(std::chrono::steady_clock::time_point start,
                                const std::string& log_path, bool journal) {
  // Read the announcement lines: "listening on ADDR:PORT", then (journal)
  // "recovered N session(s) ..." once replay finished and the server is
  // ready.
  std::string pending;
  bool listening = false;
  bool recovered = !journal;
  while (!listening || !recovered) {
    if (seconds_since(start) > 60.0) {
      throw std::runtime_error("sched_server did not become ready in 60 s");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) {
      throw std::runtime_error("poll: " + std::string(std::strerror(errno)));
    }
    char buffer[4096];
    const ssize_t n = (pfd.revents & (POLLIN | POLLHUP))
                          ? ::read(stdout_fd_, buffer, sizeof(buffer))
                          : -1;
    if (n == 0) {
      throw std::runtime_error("sched_server exited during start-up; see " +
                               log_path);
    }
    if (n < 0) continue;
    pending.append(buffer, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, eol);
      pending.erase(0, eol + 1);
      if (line.rfind("listening on ", 0) == 0) {
        port_ = static_cast<std::uint16_t>(
            std::stoi(line.substr(line.rfind(':') + 1)));
        listening = true;
      } else if (line.rfind("recovered ", 0) == 0) {
        recovered = true;
      }
    }
  }

  auto client = bagsched::net::Client::connect("127.0.0.1", port_, 10.0);
  client.send_line(R"({"type":"ping"})");
  for (;;) {
    auto frame = client.read_frame(10.0);
    if (!frame.has_value()) {
      throw std::runtime_error("sched_server closed the ping connection");
    }
    if (frame->string_or("type", "") == "pong") break;
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::cpu_seconds() const {
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  std::uint64_t ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stoull(field);
  }
  return static_cast<double>(ticks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

ProcSample ServerProcess::sample() const {
  ProcSample sample;
  const std::string proc = "/proc/" + std::to_string(pid_);
  sample.cpu_seconds = cpu_seconds();
  // /proc/<pid>/status counts the main thread only; sum every thread.
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator(proc + "/task", error)) {
    const std::string status = read_file(task.path().string() + "/status");
    sample.ctx_switches += proc_field(status, "voluntary_ctxt_switches:") +
                           proc_field(status, "nonvoluntary_ctxt_switches:");
  }
  const std::string io = read_file(proc + "/io");
  sample.syscalls = proc_field(io, "syscr:") + proc_field(io, "syscw:");
  return sample;
}

double ServerProcess::peak_rss_mib() const {
  const std::string status =
      read_file("/proc/" + std::to_string(pid_) + "/status");
  return static_cast<double>(proc_field(status, "VmHWM:")) / 1024.0;
}

void ServerProcess::reap(double timeout_seconds) {
  const Clock::time_point start = Clock::now();
  while (pid_ > 0) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      pid_ = -1;
      break;
    }
    if (seconds_since(start) > timeout_seconds) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

void ServerProcess::stop() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
  reap(10.0);
}

void ServerProcess::kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
  reap(10.0);
}

HostCpu read_host_cpu() {
  std::istringstream line(read_file("/proc/stat"));
  std::string label;
  line >> label;  // "cpu"
  HostCpu cpu;
  // user nice system idle iowait irq softirq steal
  for (int column = 0; column < 8; ++column) {
    std::uint64_t value = 0;
    line >> value;
    cpu.total += value;
    if (column == 7) cpu.steal = value;
  }
  return cpu;
}

}  // namespace perfbench
