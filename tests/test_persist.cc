// Tests for the persistence layer (DESIGN.md §8): WAL framing round trips,
// torn-tail detection at every possible truncation offset, CRC corruption
// handling, the session journal's replay/snapshot equivalence, directory
// locking and fail-fast validation, and the persist.* fault points'
// append-before-ack semantics.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "cache/canonicalize.h"
#include "gen/churn.h"
#include "model/delta.h"
#include "model/io.h"
#include "online/session.h"
#include "persist/journal.h"
#include "persist/wal.h"
#include "util/fault.h"
#include "util/json.h"

namespace bagsched {
namespace {

using persist::FsyncPolicy;
using persist::PersistError;
using persist::SessionJournal;
using persist::Wal;
using persist::WalReplay;

/// mkdtemp-backed scratch directory, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/bagsched_persist_XXXXXX";
    const char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (path_.empty()) return;
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Disables fault injection when the test scope ends, pass or fail.
struct FaultGuard {
  ~FaultGuard() { util::fault::disable(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good()) << path;
}

gen::ChurnParams tiny_churn(std::uint64_t seed = 21) {
  gen::ChurnParams params;
  params.num_jobs = 30;
  params.num_machines = 5;
  params.num_bags = 8;
  params.steps = 8;
  params.seed = seed;
  return params;
}

online::SessionOptions cheap_tuning() {
  online::SessionOptions tuning;
  tuning.solvers = {"greedy-bags"};
  tuning.solve.seed = 5;
  tuning.regret_bound = 0.35;
  return tuning;
}

/// The payloads of the WAL at `path`, in order.
std::vector<std::string> wal_records(const std::string& path) {
  WalReplay found;
  { Wal::open(path, FsyncPolicy::Off, &found); }
  return found.records;
}

/// Replaces the WAL at `path`, if there is one, with `records`.
void rewrite_wal(const std::string& path,
                 const std::vector<std::string>& records) {
  if (::access(path.c_str(), F_OK) == 0) {
    ASSERT_EQ(std::remove(path.c_str()), 0);
  }
  Wal wal = Wal::open(path, FsyncPolicy::Off);
  for (const std::string& record : records) wal.append(record);
  wal.sync();
}

persist::JournalConfig raw_config(const std::string& dir) {
  persist::JournalConfig config;
  config.dir = dir;
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;  // keep the raw record stream
  return config;
}

/// One replay's fields, side by side with another's.
void expect_same_state(const persist::RecoveredState& a,
                       const persist::RecoveredState& b) {
  EXPECT_EQ(a.max_session_id, b.max_session_id);
  EXPECT_EQ(a.records_replayed, b.records_replayed);
  EXPECT_EQ(a.truncated_bytes, b.truncated_bytes);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const persist::RecoveredSession& x = a.sessions[i];
    const persist::RecoveredSession& y = b.sessions[i];
    SCOPED_TRACE(x.session);
    EXPECT_EQ(x.session, y.session);
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.revision, y.revision);
    EXPECT_EQ(model::instance_to_json(x.instance).dump(),
              model::instance_to_json(y.instance).dump());
    EXPECT_EQ(x.schedule.num_machines(), y.schedule.num_machines());
    EXPECT_EQ(x.schedule.assignment(), y.schedule.assignment());
    EXPECT_EQ(api::options_to_json(x.tuning.solve).dump(),
              api::options_to_json(y.tuning.solve).dump());
    EXPECT_EQ(x.tuning.solvers, y.tuning.solvers);
    EXPECT_EQ(x.tuning.regret_bound, y.tuning.regret_bound);
    EXPECT_EQ(x.last_delta_json, y.last_delta_json);
    EXPECT_EQ(x.digest, y.digest);
  }
}

/// A journal of two sessions' interleaved churn commits, written through
/// SessionJournal (moves format) into `dir`. Returns the same commits in
/// the format before moves, whole schedule and all, in journal order.
std::vector<std::string> write_two_session_journal(
    const std::string& dir,
    std::vector<std::unique_ptr<online::ScheduleSession>>& live) {
  const online::SessionOptions tuning = cheap_tuning();
  std::vector<gen::ChurnTrace> traces;
  SessionJournal journal(raw_config(dir));
  journal.replay();
  for (std::uint64_t id = 0; id < 2; ++id) {
    traces.push_back(gen::churn_trace(tiny_churn(23 + id)));
    live.push_back(std::make_unique<online::ScheduleSession>(
        traces.back().initial, tuning));
    journal.record_open(id + 4, 70 + id, traces.back().initial, tuning,
                        live.back()->schedule());
  }
  std::vector<std::string> full;
  for (std::size_t step = 0; step < traces[0].deltas.size(); ++step) {
    for (std::uint64_t id = 0; id < 2; ++id) {
      online::ScheduleSession& session = *live[id];
      const model::Delta& delta = traces[id].deltas.at(step);
      const std::uint64_t before = session.revision();
      EXPECT_NE(session.apply(delta).status, api::SolveStatus::Infeasible);
      if (session.revision() == before) continue;
      journal.record_commit(id + 4, session.revision(), delta,
                            session.schedule());
      util::Json record = util::Json::object();
      record.set("type", "delta_commit");
      record.set("session", static_cast<long long>(id + 4));
      record.set("revision", static_cast<long long>(session.revision()));
      record.set("delta", api::to_json(delta));
      record.set("schedule", model::schedule_to_json(session.schedule()));
      record.set("digest", persist::schedule_digest(session.schedule()));
      full.push_back(record.dump());
    }
  }
  journal.sync();
  return full;
}

// --- CRC + framing ---------------------------------------------------------

TEST(WalTest, Crc32cMatchesTheCastagnoliCheckValue) {
  // The standard CRC-32C check value: crc of "123456789".
  EXPECT_EQ(persist::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(persist::crc32c("", 0), 0u);
  // Chaining partial computations equals one pass.
  const std::uint32_t partial = persist::crc32c("12345", 5);
  EXPECT_EQ(persist::crc32c("6789", 4, partial),
            persist::crc32c("123456789", 9));
}

TEST(WalTest, FsyncPolicyParsesAndRoundTrips) {
  EXPECT_EQ(persist::fsync_policy_from_string("always"), FsyncPolicy::Always);
  EXPECT_EQ(persist::fsync_policy_from_string("interval"),
            FsyncPolicy::Interval);
  EXPECT_EQ(persist::fsync_policy_from_string("off"), FsyncPolicy::Off);
  EXPECT_STREQ(persist::to_string(FsyncPolicy::Interval), "interval");
  EXPECT_THROW(persist::fsync_policy_from_string("zebra"), PersistError);
}

TEST(WalTest, AppendReopenRoundTripsBinaryPayloads) {
  TempDir dir;
  const std::string path = dir.file("log.wal");
  const std::vector<std::string> payloads = {
      "hello", "", std::string("\x00\x01\xff\x7f", 4), "{\"k\":1}",
      std::string(3000, 'x')};
  {
    Wal wal = Wal::open(path, FsyncPolicy::Off);
    for (const std::string& payload : payloads) wal.append(payload);
    EXPECT_EQ(wal.appends(), payloads.size());
    wal.sync();
  }
  WalReplay replay;
  Wal wal = Wal::open(path, FsyncPolicy::Off, &replay);
  EXPECT_EQ(replay.records, payloads);
  EXPECT_EQ(replay.truncated_bytes, 0u);
  EXPECT_EQ(replay.valid_bytes, wal.size_bytes());
}

TEST(WalTest, OpenRejectsTheIntervalPolicy) {
  // Interval is the session journal's policy (its flusher syncs a WAL it
  // opened with Off); a WAL never syncs on a timer itself.
  TempDir dir;
  EXPECT_THROW(Wal::open(dir.file("log.wal"), FsyncPolicy::Interval),
               PersistError);
}

TEST(WalTest, TornTailTruncateAtEveryOffsetKeepsTheLongestValidPrefix) {
  TempDir dir;
  const std::string golden = dir.file("golden.wal");
  const std::vector<std::string> payloads = {
      "a", "bb", "", "record-three", std::string(40, 'z'), "tail"};
  std::vector<std::uint64_t> boundaries = {0};  // byte size after k records
  {
    Wal wal = Wal::open(golden, FsyncPolicy::Off);
    for (const std::string& payload : payloads) {
      wal.append(payload);
      boundaries.push_back(wal.size_bytes());
    }
  }
  const std::string bytes = read_file(golden);
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::string torn = dir.file("torn.wal");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    // The longest valid prefix: every record fully inside the cut.
    std::size_t keep = 0;
    while (keep < payloads.size() && boundaries[keep + 1] <= cut) ++keep;

    write_file(torn, bytes.substr(0, cut));
    WalReplay replay;
    {
      Wal wal = Wal::open(torn, FsyncPolicy::Off, &replay);
      ASSERT_EQ(replay.records.size(), keep) << "cut at " << cut;
      for (std::size_t i = 0; i < keep; ++i) {
        EXPECT_EQ(replay.records[i], payloads[i]) << "cut at " << cut;
      }
      EXPECT_EQ(replay.valid_bytes, boundaries[keep]) << "cut at " << cut;
      EXPECT_EQ(replay.truncated_bytes, cut - boundaries[keep])
          << "cut at " << cut;
      // The log must accept appends right after tail truncation.
      wal.append("after-truncate");
    }
    WalReplay again;
    Wal::open(torn, FsyncPolicy::Off, &again);
    ASSERT_EQ(again.records.size(), keep + 1) << "cut at " << cut;
    EXPECT_EQ(again.records.back(), "after-truncate") << "cut at " << cut;
    EXPECT_EQ(again.truncated_bytes, 0u) << "cut at " << cut;
  }
}

TEST(WalTest, CrcCorruptionDropsTheRecordAndEverythingAfterIt) {
  TempDir dir;
  const std::string path = dir.file("log.wal");
  const std::vector<std::string> payloads = {"one", "two", "three", "four"};
  std::vector<std::uint64_t> boundaries = {0};
  {
    Wal wal = Wal::open(path, FsyncPolicy::Off);
    for (const std::string& payload : payloads) {
      wal.append(payload);
      boundaries.push_back(wal.size_bytes());
    }
  }
  // Flip one payload byte of record 2 (offset: its frame start + 8-byte
  // header). Records 3+ are still intact on disk, but the prefix contract
  // says they go too: the log is only trusted up to the first bad frame.
  std::string bytes = read_file(path);
  bytes[boundaries[2] + 8] ^= 0x40;
  write_file(path, bytes);

  WalReplay replay;
  {
    Wal wal = Wal::open(path, FsyncPolicy::Off, &replay);
    ASSERT_EQ(replay.records.size(), 2u);
    EXPECT_EQ(replay.records[0], "one");
    EXPECT_EQ(replay.records[1], "two");
    EXPECT_EQ(replay.valid_bytes, boundaries[2]);
    EXPECT_EQ(replay.truncated_bytes, bytes.size() - boundaries[2]);
    wal.append("five");
  }
  WalReplay again;
  Wal::open(path, FsyncPolicy::Off, &again);
  const std::vector<std::string> expected = {"one", "two", "five"};
  EXPECT_EQ(again.records, expected);
}

// --- Fault points ----------------------------------------------------------

TEST(WalTest, InjectedAppendFailureWritesNothing) {
  TempDir dir;
  FaultGuard guard;
  const std::string path = dir.file("log.wal");
  Wal wal = Wal::open(path, FsyncPolicy::Off);
  wal.append("kept");
  const std::uint64_t before = wal.size_bytes();
  util::fault::configure("persist.append=n1");
  EXPECT_THROW(wal.append("dropped"), PersistError);
  // persist.append fires BEFORE any byte is written: the file is clean, the
  // record simply never happened, and the log keeps working afterwards.
  EXPECT_EQ(wal.size_bytes(), before);
  util::fault::disable();
  wal.append("next");
  wal.close();
  WalReplay replay;
  Wal::open(path, FsyncPolicy::Off, &replay);
  const std::vector<std::string> expected = {"kept", "next"};
  EXPECT_EQ(replay.records, expected);
}

TEST(WalTest, InjectedFsyncFailureThrowsButTheRecordIsOnFile) {
  TempDir dir;
  FaultGuard guard;
  const std::string path = dir.file("log.wal");
  Wal wal = Wal::open(path, FsyncPolicy::Always);
  util::fault::configure("persist.fsync=n1");
  // Under --fsync always the append throws (no ack may be sent), but the
  // write() itself completed — the record may legitimately survive, which
  // is exactly the "at most one unacked record" recovery window.
  EXPECT_THROW(wal.append("unacked"), PersistError);
  util::fault::disable();
  wal.close();
  WalReplay replay;
  Wal::open(path, FsyncPolicy::Off, &replay);
  const std::vector<std::string> expected = {"unacked"};
  EXPECT_EQ(replay.records, expected);
}

// --- Session journal -------------------------------------------------------

TEST(JournalTest, FailsFastOnMissingDirNotADirAndHeldLock) {
  persist::JournalConfig missing;
  missing.dir = "/tmp/bagsched-no-such-dir-12345";
  try {
    SessionJournal journal(missing);
    FAIL() << "expected PersistError";
  } catch (const PersistError& error) {
    EXPECT_NE(std::string(error.what()).find("does not exist"),
              std::string::npos);
  }

  TempDir dir;
  write_file(dir.file("plainfile"), "x");
  persist::JournalConfig not_a_dir;
  not_a_dir.dir = dir.file("plainfile");
  EXPECT_THROW(SessionJournal{not_a_dir}, PersistError);

  persist::JournalConfig config;
  config.dir = dir.path();
  SessionJournal first(config);
  try {
    SessionJournal second(config);
    FAIL() << "expected the LOCK to be held";
  } catch (const PersistError& error) {
    EXPECT_NE(std::string(error.what()).find("locked"), std::string::npos);
  }
}

TEST(JournalTest, LockIsReleasedWhenTheJournalCloses) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  {
    SessionJournal journal(config);
    journal.replay();
  }
  SessionJournal reopened(config);  // must not throw
  EXPECT_EQ(reopened.replay().sessions.size(), 0u);
}

TEST(JournalTest, ReplayTwiceThrows) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  SessionJournal journal(config);
  journal.replay();
  EXPECT_THROW(journal.replay(), PersistError);
}

TEST(JournalTest, OpenCommitCloseReplayRoundTripsEverySession) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;  // keep the raw record stream

  const auto trace = gen::churn_trace(tiny_churn(21));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  const std::uint64_t epoch = 0xDEADBEEFDEADBEEFULL;  // full-range u64

  std::string final_digest;
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(7, epoch, trace.initial, tuning, live.schedule());
    for (const model::Delta& delta : trace.deltas) {
      const api::SolveResult result = live.apply(delta);
      ASSERT_NE(result.status, api::SolveStatus::Infeasible);
      journal.record_commit(7, live.revision(), delta, live.schedule());
    }
    // A second session that opens and closes must not resurrect.
    journal.record_open(9, 42, trace.initial, tuning, live.schedule());
    journal.record_close(9);
    final_digest = persist::schedule_digest(live.schedule());
    const persist::JournalStats stats = journal.stats();
    EXPECT_EQ(stats.records_appended, trace.deltas.size() + 3);
    EXPECT_EQ(stats.live_sessions, 1u);
    journal.sync();
  }

  SessionJournal reopened(config);
  const persist::RecoveredState state = reopened.replay();
  EXPECT_EQ(state.records_replayed, trace.deltas.size() + 3);
  EXPECT_EQ(state.max_session_id, 9u);
  ASSERT_EQ(state.sessions.size(), 1u);
  const persist::RecoveredSession& recovered = state.sessions[0];
  EXPECT_EQ(recovered.session, 7u);
  EXPECT_EQ(recovered.epoch, epoch);
  EXPECT_EQ(recovered.revision, trace.deltas.size());
  EXPECT_EQ(recovered.digest, final_digest);
  EXPECT_EQ(persist::schedule_digest(recovered.schedule), final_digest);
  EXPECT_EQ(cache::Canonicalizer::exact(recovered.instance).fingerprint,
            cache::Canonicalizer::exact(live.instance()).fingerprint);
  EXPECT_EQ(recovered.tuning.solvers, tuning.solvers);
  EXPECT_DOUBLE_EQ(recovered.tuning.regret_bound, tuning.regret_bound);
  EXPECT_FALSE(recovered.last_delta_json.empty());
}

TEST(JournalTest, TuningWithTheRetiredMemoCapacityStillReplays) {
  // Journals written while sessions kept a memo carry "memo_capacity" in
  // each session's tuning; replay must skip it and keep the other knobs.
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;
  const auto trace = gen::churn_trace(tiny_churn(22));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(3, 30, trace.initial, tuning, live.schedule());
    journal.sync();
  }
  const std::string path = dir.file("journal.wal");
  WalReplay written;
  { Wal::open(path, FsyncPolicy::Off, &written); }
  ASSERT_EQ(written.records.size(), 1u);
  util::Json open = util::Json::parse(written.records[0]);
  util::Json old_tuning = open.at("tuning");
  old_tuning.set("memo_capacity", 16LL);
  open.set("tuning", std::move(old_tuning));
  ASSERT_EQ(std::remove(path.c_str()), 0);
  {
    Wal wal = Wal::open(path, FsyncPolicy::Off);
    wal.append(open.dump());
    wal.sync();
  }

  SessionJournal reopened(config);
  const persist::RecoveredState state = reopened.replay();
  ASSERT_EQ(state.sessions.size(), 1u);
  const persist::RecoveredSession& recovered = state.sessions[0];
  EXPECT_EQ(recovered.session, 3u);
  EXPECT_EQ(recovered.tuning.solvers, tuning.solvers);
  EXPECT_DOUBLE_EQ(recovered.tuning.regret_bound, tuning.regret_bound);
  EXPECT_EQ(persist::schedule_digest(recovered.schedule),
            persist::schedule_digest(live.schedule()));
}

TEST(JournalTest, ReplayRejectsAnEpochThatIsNotPlainDigits) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;
  const auto trace = gen::churn_trace(tiny_churn(22));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(3, 30, trace.initial, tuning, live.schedule());
    journal.sync();
  }
  const std::string path = dir.file("journal.wal");
  WalReplay written;
  { Wal::open(path, FsyncPolicy::Off, &written); }
  ASSERT_EQ(written.records.size(), 1u);
  for (const char* epoch : {"-1", " 12", "12abc", ""}) {
    SCOPED_TRACE(epoch);
    util::Json open = util::Json::parse(written.records[0]);
    open.set("epoch", epoch);
    ASSERT_EQ(std::remove(path.c_str()), 0);
    {
      Wal wal = Wal::open(path, FsyncPolicy::Off);
      wal.append(open.dump());
      wal.sync();
    }
    SessionJournal reopened(config);
    EXPECT_THROW(reopened.replay(), PersistError);
  }
}

TEST(JournalTest, CommitsCarryMovesAndFullScheduleCommitsStillReplay) {
  // A commit record holds the placements it changed, not the schedule. A
  // journal whose commits hold the whole schedule (the format before
  // moves) replays to the identical state.
  TempDir moves_dir;
  TempDir full_dir;
  std::vector<std::unique_ptr<online::ScheduleSession>> live;
  const std::vector<std::string> full =
      write_two_session_journal(moves_dir.path(), live);
  ASSERT_GE(full.size(), 8u);

  std::vector<std::string> records =
      wal_records(moves_dir.file("journal.wal"));
  std::size_t next_full = 0;
  std::size_t moved = 0;
  for (std::string& record : records) {
    const util::Json parsed = util::Json::parse(record);
    if (parsed.at("type").as_string() != "delta_commit") continue;
    EXPECT_EQ(parsed.find("schedule"), nullptr);
    moved += parsed.at("moves").size();
    ASSERT_LT(next_full, full.size());
    EXPECT_LT(record.size(), full[next_full].size());
    record = full[next_full++];
  }
  EXPECT_EQ(next_full, full.size());
  EXPECT_GT(moved, 0u);
  rewrite_wal(full_dir.file("journal.wal"), records);

  SessionJournal moves_journal(raw_config(moves_dir.path()));
  SessionJournal full_journal(raw_config(full_dir.path()));
  const persist::RecoveredState from_moves = moves_journal.replay();
  const persist::RecoveredState from_full = full_journal.replay();
  expect_same_state(from_moves, from_full);
  ASSERT_EQ(from_moves.sessions.size(), 2u);
  for (std::size_t id = 0; id < 2; ++id) {
    const persist::RecoveredSession& recovered = from_moves.sessions[id];
    EXPECT_EQ(recovered.revision, live[id]->revision());
    EXPECT_EQ(recovered.schedule.assignment(),
              live[id]->schedule().assignment());
    EXPECT_EQ(cache::Canonicalizer::exact(recovered.instance).fingerprint,
              cache::Canonicalizer::exact(live[id]->instance()).fingerprint);
  }
}

/// Rewrites the first delta_commit record of the journal in `dir` that
/// `edit` accepts (returns true for) and expects replay to throw
/// PersistError naming `reason`.
void expect_edited_commit_fails(const TempDir& dir,
                                const std::function<bool(util::Json&)>& edit,
                                const std::string& reason) {
  std::vector<std::string> records = wal_records(dir.file("journal.wal"));
  for (std::string& record : records) {
    util::Json parsed = util::Json::parse(record);
    if (parsed.at("type").as_string() != "delta_commit") continue;
    if (!edit(parsed)) continue;
    record = parsed.dump();
    break;
  }
  rewrite_wal(dir.file("journal.wal"), records);
  SessionJournal reopened(raw_config(dir.path()));
  try {
    reopened.replay();
    ADD_FAILURE() << "replay accepted a commit that should fail: " << reason;
  } catch (const PersistError& error) {
    EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
        << error.what();
  }
}

TEST(JournalTest, CommitWithAWrongDigestFailsReplay) {
  TempDir dir;
  std::vector<std::unique_ptr<online::ScheduleSession>> live;
  write_two_session_journal(dir.path(), live);
  expect_edited_commit_fails(
      dir,
      [](util::Json& commit) {
        std::string digest = commit.at("digest").as_string();
        digest[0] = digest[0] == '0' ? '1' : '0';
        commit.set("digest", digest);
        return true;
      },
      "digest mismatch");
  // Dropping the moves leaves the schedule carried across the delta, with
  // its arrivals unassigned: not the schedule the digest names.
  TempDir other;
  live.clear();
  write_two_session_journal(other.path(), live);
  expect_edited_commit_fails(
      other,
      [](util::Json& commit) {
        if (commit.at("moves").size() == 0) return false;
        commit.set("moves", util::Json::array());
        return true;
      },
      "digest mismatch");
}

TEST(JournalTest, MoveOutOfRangeFailsReplay) {
  // The first commit is session 4's revision 1; its post-delta job and
  // machine counts bound every move.
  const auto trace = gen::churn_trace(tiny_churn(23));
  const model::Instance after =
      model::apply_delta(trace.initial, trace.deltas.at(0));
  const std::string jobs = std::to_string(after.num_jobs());
  const std::string machines = std::to_string(after.num_machines());
  for (const std::string& move :
       {"[" + jobs + ",0]", "[0," + machines + "]", std::string("[-1,0]"),
        std::string("[0,-1]"), std::string("[0]"), std::string("[0,1,2]")}) {
    SCOPED_TRACE(move);
    TempDir dir;
    std::vector<std::unique_ptr<online::ScheduleSession>> live;
    write_two_session_journal(dir.path(), live);
    expect_edited_commit_fails(
        dir,
        [&](util::Json& commit) {
          util::Json moves = util::Json::array();
          moves.push_back(util::Json::parse(move));
          commit.set("moves", std::move(moves));
          return true;
        },
        "out of range");
  }
}

TEST(JournalTest, FoldingDeltasMatchesApplyingThemOneAtATime) {
  gen::ChurnParams params = tiny_churn(31);
  params.num_jobs = 60;
  params.num_machines = 8;
  params.num_bags = 12;
  params.steps = 1000;
  const auto trace = gen::churn_trace(params);
  ASSERT_EQ(trace.deltas.size(), 1000u);
  model::Instance stepped = trace.initial;
  for (const model::Delta& delta : trace.deltas) {
    stepped = model::apply_delta(stepped, delta);
  }
  const model::Instance folded =
      model::apply_deltas(trace.initial, trace.deltas);
  ASSERT_EQ(folded.num_jobs(), stepped.num_jobs());
  for (model::JobId job = 0; job < folded.num_jobs(); ++job) {
    EXPECT_EQ(folded.job(job).id, stepped.job(job).id);
    EXPECT_EQ(folded.job(job).size, stepped.job(job).size);
    EXPECT_EQ(folded.job(job).bag, stepped.job(job).bag);
  }
  EXPECT_EQ(folded.num_bags(), stepped.num_bags());
  EXPECT_EQ(folded.num_machines(), stepped.num_machines());
  EXPECT_EQ(cache::Canonicalizer::exact(folded).fingerprint,
            cache::Canonicalizer::exact(stepped).fingerprint);
}

TEST(JournalTest, IntervalFlusherRunsBesideLiveCommits) {
  // Under --fsync interval a flusher thread syncs the WAL while commits
  // diff their moves against the shadow schedule; the replayed state is the
  // live one.
  TempDir dir;
  persist::JournalConfig config = raw_config(dir.path());
  config.fsync = FsyncPolicy::Interval;
  config.fsync_interval_seconds = 0.001;
  gen::ChurnParams params = tiny_churn(41);
  params.steps = 60;
  const auto trace = gen::churn_trace(params);
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(1, 1, trace.initial, tuning, live.schedule());
    for (const model::Delta& delta : trace.deltas) {
      const std::uint64_t before = live.revision();
      ASSERT_NE(live.apply(delta).status, api::SolveStatus::Infeasible);
      if (live.revision() == before) continue;
      journal.record_commit(1, live.revision(), delta, live.schedule());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (journal.stats().fsyncs == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(journal.stats().fsyncs, 0u);
  }
  SessionJournal reopened(raw_config(dir.path()));
  const persist::RecoveredState state = reopened.replay();
  ASSERT_EQ(state.sessions.size(), 1u);
  EXPECT_EQ(state.sessions[0].revision, live.revision());
  EXPECT_EQ(state.sessions[0].schedule.assignment(),
            live.schedule().assignment());
}

TEST(JournalTest, FsyncCountSurvivesSnapshotRotation) {
  // Each snapshot reopens the WAL, whose own fsync count starts over; the
  // journal's counter must still only grow.
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Always;
  config.snapshot_every = 0;
  const auto trace = gen::churn_trace(tiny_churn(22));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  SessionJournal journal(config);
  journal.replay();
  journal.record_open(1, 11, trace.initial, tuning, live.schedule());
  journal.record_open(2, 12, trace.initial, tuning, live.schedule());
  const std::uint64_t before = journal.stats().fsyncs;
  EXPECT_GE(before, 2u);
  journal.snapshot();
  EXPECT_GE(journal.stats().fsyncs, before);
  journal.record_close(2);
  EXPECT_GT(journal.stats().fsyncs, before);
}

TEST(JournalTest, SnapshotCompactionPreservesTheRecoveredState) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;

  const auto trace = gen::churn_trace(tiny_churn(22));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  std::uint64_t incremental_bytes = 0;
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(1, 11, trace.initial, tuning, live.schedule());
    for (const model::Delta& delta : trace.deltas) {
      ASSERT_NE(live.apply(delta).status, api::SolveStatus::Infeasible);
      journal.record_commit(1, live.revision(), delta, live.schedule());
    }
    incremental_bytes = journal.stats().journal_bytes;
    journal.snapshot();
    const persist::JournalStats stats = journal.stats();
    EXPECT_EQ(stats.snapshots, 1u);
    // Compaction rewrote the history as one snapshot record.
    EXPECT_LT(stats.journal_bytes, incremental_bytes);
    // The compacted journal keeps accepting appends.
    journal.record_open(2, 12, trace.initial, tuning, live.schedule());
  }

  SessionJournal reopened(config);
  const persist::RecoveredState state = reopened.replay();
  ASSERT_EQ(state.sessions.size(), 2u);
  EXPECT_EQ(state.max_session_id, 2u);
  const persist::RecoveredSession& one = state.sessions[0];
  EXPECT_EQ(one.session, 1u);
  EXPECT_EQ(one.epoch, 11u);
  EXPECT_EQ(one.revision, trace.deltas.size());
  EXPECT_EQ(one.digest, persist::schedule_digest(live.schedule()));
  EXPECT_EQ(cache::Canonicalizer::exact(one.instance).fingerprint,
            cache::Canonicalizer::exact(live.instance()).fingerprint);
  EXPECT_EQ(state.sessions[1].session, 2u);
  EXPECT_EQ(state.sessions[1].revision, 0u);
}

TEST(JournalTest, AutomaticCompactionTriggersEverySnapshotEveryRecords) {
  TempDir dir;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 3;

  const auto trace = gen::churn_trace(tiny_churn(23));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  SessionJournal journal(config);
  journal.replay();
  journal.record_open(1, 1, trace.initial, tuning, live.schedule());
  for (const model::Delta& delta : trace.deltas) {
    ASSERT_NE(live.apply(delta).status, api::SolveStatus::Infeasible);
    journal.record_commit(1, live.revision(), delta, live.schedule());
  }
  // 1 open + 8 commits at snapshot_every=3 → at least two compactions.
  EXPECT_GE(journal.stats().snapshots, 2u);
  EXPECT_EQ(journal.stats().live_sessions, 1u);
}

TEST(JournalTest, InjectedSnapshotFailureKeepsTheOldJournalValid) {
  TempDir dir;
  FaultGuard guard;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;

  const auto trace = gen::churn_trace(tiny_churn(24));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  {
    SessionJournal journal(config);
    journal.replay();
    journal.record_open(1, 5, trace.initial, tuning, live.schedule());
    util::fault::configure("persist.snapshot=n1");
    EXPECT_THROW(journal.snapshot(), PersistError);
    EXPECT_EQ(journal.stats().snapshot_failures, 1u);
    util::fault::disable();
  }
  SessionJournal reopened(config);
  EXPECT_EQ(reopened.replay().sessions.size(), 1u);
}

TEST(JournalTest, InjectedAppendFailurePreservesAppendBeforeAck) {
  TempDir dir;
  FaultGuard guard;
  persist::JournalConfig config;
  config.dir = dir.path();
  config.fsync = FsyncPolicy::Off;
  config.snapshot_every = 0;

  const auto trace = gen::churn_trace(tiny_churn(25));
  const online::SessionOptions tuning = cheap_tuning();
  online::ScheduleSession live(trace.initial, tuning);
  {
    SessionJournal journal(config);
    journal.replay();
    util::fault::configure("persist.append=n1");
    EXPECT_THROW(
        journal.record_open(1, 5, trace.initial, tuning, live.schedule()),
        PersistError);
    util::fault::disable();
    // The failed open never reached the journal: no shadow session, no
    // record. A retry under a fresh id goes through.
    EXPECT_EQ(journal.stats().live_sessions, 0u);
    EXPECT_EQ(journal.stats().records_appended, 0u);
    journal.record_open(2, 6, trace.initial, tuning, live.schedule());
  }
  SessionJournal reopened(config);
  const persist::RecoveredState state = reopened.replay();
  ASSERT_EQ(state.sessions.size(), 1u);
  EXPECT_EQ(state.sessions[0].session, 2u);
}

}  // namespace
}  // namespace bagsched
