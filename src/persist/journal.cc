#include "persist/journal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/serialize.h"
#include "model/io.h"
#include "util/fault.h"
#include "util/hash.h"

namespace bagsched::persist {
namespace {

std::uint64_t record_u64(const util::Json& value) {
  // Full-range u64 values (epochs) travel as decimal strings; session ids
  // and revisions are small enough to ride as numbers.
  try {
    return util::u64_from_json(value);
  } catch (const std::runtime_error& error) {
    throw PersistError(std::string("journal: ") + error.what());
  }
}

util::Json tuning_to_json(const online::SessionOptions& tuning) {
  util::Json json = util::Json::object();
  json.set("solve", api::options_to_json(tuning.solve));
  if (!tuning.solvers.empty()) {
    util::Json solvers = util::Json::array();
    for (const std::string& solver : tuning.solvers) solvers.push_back(solver);
    json.set("solvers", std::move(solvers));
  }
  json.set("regret_bound", tuning.regret_bound);
  json.set("repair_moves", tuning.repair_moves);
  json.set("region_max_jobs", tuning.region_max_jobs);
  json.set("region_max_nodes", tuning.region_max_nodes);
  return json;
}

online::SessionOptions tuning_from_json(const util::Json& json) {
  online::SessionOptions tuning;
  if (const util::Json* solve = json.find("solve")) {
    tuning.solve = api::options_from_json(*solve);
  }
  if (const util::Json* solvers = json.find("solvers")) {
    for (const util::Json& solver : solvers->as_array()) {
      tuning.solvers.push_back(solver.as_string());
    }
  }
  tuning.regret_bound = json.number_or("regret_bound", tuning.regret_bound);
  tuning.repair_moves = json.int_or("repair_moves", tuning.repair_moves);
  tuning.region_max_jobs = static_cast<int>(
      json.int_or("region_max_jobs", tuning.region_max_jobs));
  tuning.region_max_nodes =
      json.int_or("region_max_nodes", tuning.region_max_nodes);
  // Journals written while sessions kept a memo also carry
  // "memo_capacity"; it has no effect any more and is skipped.
  return tuning;
}

std::string hex16(std::uint64_t value) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(out, 16);
}

/// Committed deltas a shadow may buffer before they are folded into its
/// instance — the backstop for commits journaled WITHOUT a caller-supplied
/// post-delta instance (replay, bare record_commit callers). Folding builds
/// the instance once per batch, so it is deferred to the readers
/// (snapshot, replay); this limit only bounds the buffer's memory.
constexpr std::size_t kPendingBatchLimit = 1024;

void append_int(std::string& out, long long value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

std::string commit_name(std::uint64_t session, std::uint64_t revision) {
  return "session " + std::to_string(session) + " revision " +
         std::to_string(revision);
}

/// `schedule` carried across `delta` (model::carry_schedule): what a
/// commit's moves are taken against, live and on replay alike.
model::Schedule carry_commit(const model::Schedule& schedule,
                             const model::Delta& delta, std::uint64_t session,
                             std::uint64_t revision) {
  try {
    return model::carry_schedule(
        schedule, model::map_delta(schedule.num_jobs(),
                                   schedule.num_machines(), delta));
  } catch (const std::invalid_argument& error) {
    throw PersistError("journal: the delta of " +
                       commit_name(session, revision) +
                       " does not apply: " + error.what());
  }
}

std::string encode_delta(const std::optional<model::Delta>& delta) {
  std::string out;
  if (delta.has_value()) api::append_delta(out, *delta);
  return out;
}

}  // namespace

std::string schedule_digest(const model::Schedule& schedule) {
  util::Hash128 hash(0x6a6f75726e616cULL);
  hash.update(static_cast<std::uint64_t>(schedule.num_machines()));
  for (const model::MachineId machine : schedule.assignment()) {
    hash.update(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(machine)));
  }
  return hex16(hash.hi()) + hex16(hash.lo());
}

SessionJournal::SessionJournal(JournalConfig config)
    : config_(std::move(config)) {
  struct stat dir_stat {};
  if (::stat(config_.dir.c_str(), &dir_stat) != 0) {
    throw PersistError("journal dir " + config_.dir + " does not exist (" +
                       std::strerror(errno) + "); create it first");
  }
  if (!S_ISDIR(dir_stat.st_mode)) {
    throw PersistError("journal dir " + config_.dir + " is not a directory");
  }

  const std::string lock = lock_path();
  lock_fd_ = ::open(lock.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw PersistError("journal dir " + config_.dir + " is not writable (" +
                       lock + ": " + std::strerror(errno) + ")");
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    std::string owner = "unknown pid";
    char pid_text[32];
    const ssize_t got = ::pread(lock_fd_, pid_text, sizeof pid_text - 1, 0);
    if (got > 0) {
      pid_text[got] = '\0';
      owner = "pid " + std::string(pid_text);
      while (!owner.empty() && (owner.back() == '\n' || owner.back() == ' ')) {
        owner.pop_back();
      }
    }
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw PersistError("journal dir " + config_.dir +
                       " is locked by another live server (" + owner +
                       " holds " + lock + ")");
  }
  const std::string pid = std::to_string(::getpid()) + "\n";
  if (::ftruncate(lock_fd_, 0) != 0 ||
      ::pwrite(lock_fd_, pid.data(), pid.size(), 0) < 0) {
    // Lock is held regardless; the pid in the file is advisory diagnostics.
  }

  try {
    WalReplay found;
    wal_ = Wal::open(wal_path(), wal_policy(), &found);
    pending_replay_ = std::move(found.records);
    stats_.truncated_bytes = found.truncated_bytes;
  } catch (...) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }

  if (config_.fsync == FsyncPolicy::Interval) {
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

SessionJournal::~SessionJournal() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> guard(flusher_mutex_);
      stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  wal_.close();
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);  // releases the flock
    lock_fd_ = -1;
  }
}

FsyncPolicy SessionJournal::wal_policy() const {
  // Under Interval the bounded-loss window is enforced by the background
  // flusher (fsync every fsync_interval_seconds, off the append path), so
  // the WAL itself must not sync inline — an fsync can take tens of
  // milliseconds on a loaded filesystem and it would stall every ack
  // landing in that window.
  return config_.fsync == FsyncPolicy::Interval ? FsyncPolicy::Off
                                                : config_.fsync;
}

void SessionJournal::flusher_main() {
  const auto interval =
      std::chrono::duration<double>(config_.fsync_interval_seconds);
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!stop_flusher_) {
    flusher_cv_.wait_for(lock, interval);
    if (stop_flusher_) break;
    lock.unlock();
    int fd = -1;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (wal_.is_open() && dirty_since_flush_) {
        fd = ::dup(wal_.fd());
        dirty_since_flush_ = false;
        if (fd >= 0) ++stats_.fsyncs;
      }
    }
    if (fd >= 0) {
      // On a dup'd descriptor, without the journal mutex: appends keep
      // landing while the kernel writes back, and a concurrent snapshot
      // rotation at worst syncs the already-renamed previous file.
      // fdatasync, not fsync: data + the size metadata needed to read it
      // back is exactly the durability the framed WAL requires, and it
      // skips the inode-timestamp writeback that stalls concurrent
      // appends hardest.
      ::fdatasync(fd);
      ::close(fd);
    }
    lock.lock();
  }
}

std::string SessionJournal::wal_path() const {
  return config_.dir + "/journal.wal";
}

std::string SessionJournal::lock_path() const {
  return config_.dir + "/LOCK";
}

RecoveredState SessionJournal::replay() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (replayed_) throw PersistError("journal: replay() called twice");
  replayed_ = true;

  std::size_t index = 0;
  for (const std::string& text : pending_replay_) {
    util::Json record;
    try {
      record = util::Json::parse(text);
    } catch (const std::exception& error) {
      throw PersistError("journal: record " + std::to_string(index) +
                         " is CRC-valid but unparseable: " + error.what());
    }
    try {
      ingest_locked(record);
    } catch (const PersistError&) {
      throw;
    } catch (const std::exception& error) {
      throw PersistError("journal: record " + std::to_string(index) +
                         " is malformed: " + error.what());
    }
    ++stats_.records_replayed;
    ++index;
  }
  pending_replay_.clear();

  RecoveredState state;
  state.max_session_id = max_session_id_;
  state.records_replayed = stats_.records_replayed;
  state.truncated_bytes = stats_.truncated_bytes;
  for (auto& [session, shadow] : sessions_) {
    materialize_locked(session, shadow);
  }
  for (const auto& [session, shadow] : sessions_) {
    RecoveredSession recovered;
    recovered.session = session;
    recovered.epoch = shadow.epoch;
    recovered.revision = shadow.revision;
    recovered.instance = *shadow.instance;
    recovered.schedule = shadow.schedule;
    recovered.tuning = tuning_from_json(shadow.tuning);
    recovered.last_delta_json = encode_delta(shadow.last_delta);
    recovered.digest = shadow.digest;
    state.sessions.push_back(std::move(recovered));
  }
  stats_.sessions_recovered = state.sessions.size();
  return state;
}

void SessionJournal::ingest_locked(const util::Json& record) {
  const std::string type = record.at("type").as_string();
  if (type == "session_open") {
    const std::uint64_t session = record_u64(record.at("session"));
    Shadow shadow;
    shadow.epoch = record_u64(record.at("epoch"));
    shadow.revision = 0;
    shadow.instance = std::make_shared<const model::Instance>(
        model::instance_from_json(record.at("instance")));
    shadow.schedule = model::schedule_from_json(record.at("schedule"));
    shadow.tuning = record.at("tuning");
    shadow.digest = record.at("digest").as_string();
    if (schedule_digest(shadow.schedule) != shadow.digest) {
      throw PersistError("journal: session_open digest mismatch for session " +
                         std::to_string(session));
    }
    open_shadow_locked(session, std::move(shadow));
  } else if (type == "delta_commit") {
    const std::uint64_t session = record_u64(record.at("session"));
    const std::uint64_t revision = record_u64(record.at("revision"));
    Shadow& shadow = checked_commit_shadow_locked(session, revision);
    const model::Delta delta = api::delta_from_json(record.at("delta"));
    model::Schedule schedule;
    if (const util::Json* full = record.find("schedule")) {
      // Written before commits carried moves: the whole schedule.
      schedule = model::schedule_from_json(*full);
    } else {
      schedule = carry_commit(shadow.schedule, delta, session, revision);
      for (const util::Json& move : record.at("moves").as_array()) {
        const long long job = move.size() == 2 ? move.at(0).as_int() : -1;
        const long long machine = move.size() == 2 ? move.at(1).as_int() : -1;
        if (job < 0 || job >= schedule.num_jobs() || machine < 0 ||
            machine >= schedule.num_machines()) {
          throw PersistError("journal: " + commit_name(session, revision) +
                             " moves " + move.dump() + ", out of range for " +
                             std::to_string(schedule.num_jobs()) +
                             " jobs on " +
                             std::to_string(schedule.num_machines()) +
                             " machines");
        }
        schedule.assign(static_cast<model::JobId>(job),
                        static_cast<model::MachineId>(machine));
      }
    }
    std::string digest = record.at("digest").as_string();
    if (schedule_digest(schedule) != digest) {
      throw PersistError("journal: delta_commit digest mismatch for " +
                         commit_name(session, revision));
    }
    apply_commit_locked(session, shadow, delta, std::move(schedule),
                        std::move(digest), nullptr);
  } else if (type == "session_close") {
    sessions_.erase(record_u64(record.at("session")));
  } else if (type == "snapshot") {
    sessions_.clear();
    max_session_id_ = record_u64(record.at("max_session_id"));
    for (const util::Json& entry : record.at("sessions").as_array()) {
      const std::uint64_t session = record_u64(entry.at("session"));
      Shadow shadow;
      shadow.epoch = record_u64(entry.at("epoch"));
      shadow.revision = record_u64(entry.at("revision"));
      shadow.instance = std::make_shared<const model::Instance>(
          model::instance_from_json(entry.at("instance")));
      shadow.schedule = model::schedule_from_json(entry.at("schedule"));
      shadow.tuning = entry.at("tuning");
      shadow.digest = entry.at("digest").as_string();
      if (schedule_digest(shadow.schedule) != shadow.digest) {
        throw PersistError("journal: snapshot digest mismatch for session " +
                           std::to_string(session));
      }
      const std::string last_delta = entry.string_or("last_delta", "");
      if (!last_delta.empty()) {
        shadow.last_delta =
            api::delta_from_json(util::Json::parse(last_delta));
      }
      open_shadow_locked(session, std::move(shadow));
    }
  } else {
    throw PersistError("journal: unknown record type \"" + type + "\"");
  }
}

void SessionJournal::open_shadow_locked(std::uint64_t session, Shadow shadow) {
  sessions_[session] = std::move(shadow);
  if (session > max_session_id_) max_session_id_ = session;
}

SessionJournal::Shadow& SessionJournal::checked_commit_shadow_locked(
    std::uint64_t session, std::uint64_t revision) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw PersistError("journal: delta_commit for unknown session " +
                       std::to_string(session));
  }
  Shadow& shadow = it->second;
  if (revision != shadow.revision + 1) {
    throw PersistError("journal: session " + std::to_string(session) +
                       " revision jumped from " +
                       std::to_string(shadow.revision) + " to " +
                       std::to_string(revision));
  }
  return shadow;
}

void SessionJournal::apply_commit_locked(
    std::uint64_t session, Shadow& shadow, const model::Delta& delta,
    model::Schedule schedule, std::string digest,
    std::shared_ptr<const model::Instance> post_instance) {
  if (post_instance != nullptr) {
    // The caller's instance already includes every commit so far — any
    // deltas still buffered are subsumed by it.
    shadow.instance = std::move(post_instance);
    shadow.pending.clear();
  } else {
    shadow.pending.push_back(delta);
    if (shadow.pending.size() >= kPendingBatchLimit) {
      materialize_locked(session, shadow);
    }
  }
  shadow.schedule = std::move(schedule);
  shadow.digest = std::move(digest);
  ++shadow.revision;
  shadow.last_delta = delta;
}

void SessionJournal::materialize_locked(std::uint64_t session,
                                        Shadow& shadow) {
  if (shadow.pending.empty()) return;
  try {
    shadow.instance = std::make_shared<const model::Instance>(
        model::apply_deltas(*shadow.instance, shadow.pending));
  } catch (const std::exception& error) {
    throw PersistError("journal: committed delta for session " +
                       std::to_string(session) +
                       " does not apply: " + error.what());
  }
  shadow.pending.clear();
}

void SessionJournal::appended_locked(std::size_t payload_bytes) {
  ++stats_.records_appended;
  stats_.bytes_appended += payload_bytes;
  dirty_since_flush_ = true;  // wakes the Interval flusher's next cycle
  ++records_since_snapshot_;
  if (config_.snapshot_every != 0 &&
      records_since_snapshot_ >= config_.snapshot_every) {
    snapshot_locked(/*rethrow=*/false);
  }
}

void SessionJournal::record_open(std::uint64_t session, std::uint64_t epoch,
                                 const model::Instance& instance,
                                 const online::SessionOptions& tuning,
                                 const model::Schedule& schedule) {
  util::Json record = util::Json::object();
  record.set("type", "session_open");
  record.set("session", static_cast<long long>(session));
  record.set("epoch", std::to_string(epoch));
  record.set("instance", model::instance_to_json(instance));
  record.set("tuning", tuning_to_json(tuning));
  record.set("schedule", model::schedule_to_json(schedule));
  record.set("digest", schedule_digest(schedule));
  Shadow shadow;
  shadow.epoch = epoch;
  shadow.revision = 0;
  shadow.instance = std::make_shared<const model::Instance>(instance);
  shadow.schedule = schedule;
  shadow.tuning = record.at("tuning");
  shadow.digest = record.at("digest").as_string();
  const std::string payload = record.dump();
  std::lock_guard<std::mutex> guard(mutex_);
  wal_.append(payload);
  open_shadow_locked(session, std::move(shadow));
  appended_locked(payload.size());
}

void SessionJournal::record_commit(
    std::uint64_t session, std::uint64_t revision, const model::Delta& delta,
    std::string delta_json, const model::Schedule& schedule,
    std::string digest,
    std::shared_ptr<const model::Instance> post_instance) {
  // The hot record — one per acked delta, serialized straight into the
  // payload buffer. It carries only the placements this commit changed.
  std::string payload;
  payload.reserve(delta_json.size() + digest.size() + 128);
  payload += "{\"type\":\"delta_commit\",\"session\":";
  append_int(payload, static_cast<long long>(session));
  payload += ",\"revision\":";
  append_int(payload, static_cast<long long>(revision));
  payload += ",\"delta\":";
  payload += delta_json;
  payload += ",\"moves\":[";
  std::lock_guard<std::mutex> guard(mutex_);
  Shadow& shadow = checked_commit_shadow_locked(session, revision);
  const model::Schedule carried =
      carry_commit(shadow.schedule, delta, session, revision);
  if (schedule.num_jobs() != carried.num_jobs() ||
      schedule.num_machines() != carried.num_machines()) {
    throw PersistError("journal: " + commit_name(session, revision) +
                       " commits a schedule of " +
                       std::to_string(schedule.num_jobs()) + " jobs on " +
                       std::to_string(schedule.num_machines()) +
                       " machines, but its delta leaves " +
                       std::to_string(carried.num_jobs()) + " on " +
                       std::to_string(carried.num_machines()));
  }
  const char* sep = "";
  for (model::JobId job = 0; job < schedule.num_jobs(); ++job) {
    const model::MachineId machine = schedule.machine_of(job);
    if (machine == carried.machine_of(job)) continue;
    if (machine < 0 || machine >= schedule.num_machines()) {
      throw PersistError("journal: " + commit_name(session, revision) +
                         " leaves job " + std::to_string(job) +
                         " unassigned");
    }
    payload += sep;
    payload += '[';
    append_int(payload, job);
    payload += ',';
    append_int(payload, machine);
    payload += ']';
    sep = ",";
  }
  payload += "],\"digest\":\"";
  payload += digest;
  payload += "\"}";
  wal_.append(payload);
  apply_commit_locked(session, shadow, delta, schedule, std::move(digest),
                      std::move(post_instance));
  appended_locked(payload.size());
}

void SessionJournal::record_commit(std::uint64_t session,
                                   std::uint64_t revision,
                                   const model::Delta& delta,
                                   const model::Schedule& schedule,
                                   const model::Instance* post_instance) {
  std::string delta_json;
  api::append_delta(delta_json, delta);
  record_commit(session, revision, delta, std::move(delta_json), schedule,
                schedule_digest(schedule),
                post_instance != nullptr
                    ? std::make_shared<const model::Instance>(*post_instance)
                    : nullptr);
}

void SessionJournal::record_close(std::uint64_t session) {
  std::string payload = "{\"type\":\"session_close\",\"session\":";
  append_int(payload, static_cast<long long>(session));
  payload += "}";
  std::lock_guard<std::mutex> guard(mutex_);
  wal_.append(payload);
  sessions_.erase(session);
  appended_locked(payload.size());
}

util::Json SessionJournal::snapshot_record_locked() {
  // Snapshots read the shadow instances: fold in any deltas still pending
  // from the lazy commit path first.
  for (auto& [session, shadow] : sessions_) {
    materialize_locked(session, shadow);
  }
  util::Json record = util::Json::object();
  record.set("type", "snapshot");
  record.set("max_session_id", static_cast<long long>(max_session_id_));
  util::Json entries = util::Json::array();
  for (const auto& [session, shadow] : sessions_) {
    util::Json entry = util::Json::object();
    entry.set("session", static_cast<long long>(session));
    entry.set("epoch", std::to_string(shadow.epoch));
    entry.set("revision", static_cast<long long>(shadow.revision));
    entry.set("instance", model::instance_to_json(*shadow.instance));
    entry.set("tuning", shadow.tuning);
    entry.set("schedule", model::schedule_to_json(shadow.schedule));
    entry.set("digest", shadow.digest);
    if (shadow.last_delta.has_value()) {
      entry.set("last_delta", encode_delta(shadow.last_delta));
    }
    entries.push_back(std::move(entry));
  }
  record.set("sessions", std::move(entries));
  return record;
}

void SessionJournal::snapshot_locked(bool rethrow) {
  if (BAGSCHED_FAULT("persist.snapshot")) {
    ++stats_.snapshot_failures;
    records_since_snapshot_ = 0;  // back off until the next full window
    if (rethrow) {
      throw PersistError("journal: injected snapshot failure "
                         "(persist.snapshot)");
    }
    return;
  }

  const std::string payload = snapshot_record_locked().dump();
  const std::string tmp = wal_path() + ".tmp";
  try {
    ::unlink(tmp.c_str());
    Wal tmp_wal = Wal::open(tmp, FsyncPolicy::Off);
    tmp_wal.append(payload);
    tmp_wal.sync();
    tmp_wal.close();
  } catch (...) {
    ++stats_.snapshot_failures;
    records_since_snapshot_ = 0;
    ::unlink(tmp.c_str());
    if (rethrow) throw;
    return;  // the live journal is untouched; keep appending to it
  }

  // Point of no return: swap the compacted file in and move the writer
  // over. A failure from here on is a real I/O emergency, not something
  // automatic compaction may shrug off.
  if (::rename(tmp.c_str(), wal_path().c_str()) != 0) {
    ++stats_.snapshot_failures;
    const std::string reason = std::strerror(errno);
    ::unlink(tmp.c_str());
    if (rethrow) {
      throw PersistError("journal: cannot rename " + tmp + " over " +
                         wal_path() + ": " + reason);
    }
    return;
  }
  const int dir_fd = ::open(config_.dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  stats_.fsyncs += wal_.fsyncs();  // the reopened WAL counts from zero
  wal_.close();
  wal_ = Wal::open(wal_path(), wal_policy());
  records_since_snapshot_ = 0;
  ++stats_.snapshots;
}

void SessionJournal::snapshot() {
  std::lock_guard<std::mutex> guard(mutex_);
  snapshot_locked(/*rethrow=*/true);
}

void SessionJournal::sync() {
  std::lock_guard<std::mutex> guard(mutex_);
  wal_.sync();
}

JournalStats SessionJournal::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  JournalStats stats = stats_;
  stats.fsyncs += wal_.fsyncs();
  stats.live_sessions = sessions_.size();
  stats.journal_bytes = wal_.size_bytes();
  return stats;
}

}  // namespace bagsched::persist
