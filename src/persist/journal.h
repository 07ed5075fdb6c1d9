// Durable session journal: the write-ahead log that lets sched_server be
// SIGKILLed and restarted without losing a single acked commit
// (DESIGN.md §8).
//
// The journal records the life of every online session as framed WAL
// records (persist/wal.h) with JSON payloads:
//
//   session_open   {session, epoch, instance, tuning, schedule, digest}
//   delta_commit   {session, revision, delta, moves, digest}
//   session_close  {session}
//   snapshot       {max_session_id, sessions:[...]} — the whole live state
//                  in one record, written by compaction
//
// A delta_commit grows with the delta, not with the session: `moves` lists
// the [job, machine] pairs, in post-delta numbering, whose machine differs
// from the previous commit's schedule carried across the delta
// (model::carry_schedule) — the arrivals, the migrated jobs and the jobs of
// failed machines. Replay carries the schedule the same way, applies the
// moves and checks the digest. Records that hold the whole `schedule`
// instead of `moves` (the format before moves) still replay.
//
// The ordering contract with the service is append-before-ack: a commit
// is journaled before its result is resolved to the client, so after a
// crash every acked commit is on disk (recovery invariant: acked ⇒
// recovered) and at most one unacked record — the one being written when
// the process died — may additionally survive; resume-side revision
// dedupe absorbs it.
//
// The journal keeps its own shadow of each session (instance, committed
// schedule, revision, tuning) updated identically by live appends and by
// replay — the live service shares its committed, immutable instance into
// it rather than copying it — so snapshot compaction and boot-time recovery
// are journal-local: replay() hands back fully materialized sessions and
// the service re-adopts them without re-solving anything.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "model/delta.h"
#include "model/instance.h"
#include "model/schedule.h"
#include "online/session.h"
#include "persist/wal.h"
#include "util/json.h"

namespace bagsched::persist {

struct JournalConfig {
  /// Directory holding journal.wal + the LOCK file. Must already exist;
  /// the journal never creates it (a typo'd path should fail loudly, not
  /// silently journal into a fresh directory).
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::Interval;
  /// Bounded-loss window under Interval: how often the background flusher
  /// fdatasyncs. 100ms balances the power-failure window against the jbd2
  /// stalls each sync inflicts on concurrent appends (process death alone
  /// never loses acked records regardless — completed write()s survive).
  double fsync_interval_seconds = 0.1;
  /// Compact (rewrite the journal as one snapshot record) after this many
  /// appended records; 0 disables automatic compaction.
  std::uint64_t snapshot_every = 4096;
};

struct JournalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_failures = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t sessions_recovered = 0;
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped at open
  std::uint64_t live_sessions = 0;
  std::uint64_t journal_bytes = 0;  ///< current on-disk size
};

/// One session materialized from the journal, ready to re-adopt.
struct RecoveredSession {
  std::uint64_t session = 0;
  std::uint64_t epoch = 0;
  std::uint64_t revision = 0;
  model::Instance instance;      ///< post-delta, as of the last commit
  model::Schedule schedule;      ///< last committed schedule
  online::SessionOptions tuning;
  std::string last_delta_json;   ///< serialized last delta ("" at rev 0)
  std::string digest;            ///< schedule_digest(schedule)
};

/// Everything replay() reconstructed.
struct RecoveredState {
  std::vector<RecoveredSession> sessions;
  /// Highest session id ever journaled (also counts closed sessions), so
  /// a restarted server never reissues an id.
  std::uint64_t max_session_id = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t truncated_bytes = 0;
};

/// Order-sensitive fingerprint of a committed schedule (Hash128 over the
/// machine count and assignment vector), 32 hex chars. This is the
/// "fingerprint-identical" of the recovery invariant: journaled with
/// every commit, verified on replay, echoed by resume_session.
std::string schedule_digest(const model::Schedule& schedule);

class SessionJournal {
 public:
  /// Opens `config.dir/journal.wal` (creating the file, never the
  /// directory) and takes an exclusive flock on `config.dir/LOCK`. Throws
  /// PersistError with an actionable message when the directory is
  /// missing, not writable, or locked by another live server.
  explicit SessionJournal(JournalConfig config);
  ~SessionJournal();

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Replays whatever open() found (snapshot record first, then the
  /// incremental records after it) into RecoveredState. Call once, before
  /// the first record_*; a fresh journal replays to an empty state.
  /// Throws PersistError on a CRC-valid but semantically corrupt record
  /// (unparseable JSON, digest mismatch) — that is a bug, not a torn tail.
  RecoveredState replay();

  /// Journals a session's birth: the instance and tuning it was opened
  /// with and its first committed schedule. Throws PersistError when the
  /// append fails — the caller must then fail the session, not ack it.
  void record_open(std::uint64_t session, std::uint64_t epoch,
                   const model::Instance& instance,
                   const online::SessionOptions& tuning,
                   const model::Schedule& schedule);

  /// Journals one committed delta; `revision` is the session's revision
  /// AFTER the commit and must advance by exactly 1. `delta_json` must be
  /// api::append_delta's encoding of `delta` and `digest`
  /// schedule_digest(schedule): the live service computes both once per
  /// commit for its own resume shadow. The record's moves are derived here
  /// from the journal's shadow schedule; a `schedule` that is not a
  /// complete schedule of the post-delta job and machine counts throws
  /// PersistError before anything is written. `post_instance`, when the
  /// caller holds the committed post-delta instance (the live service
  /// does — its session just applied the delta), is shared into the shadow
  /// instead of re-deriving it through apply_delta, keeping the
  /// append-before-ack path free of per-commit instance rebuilds and
  /// copies; when null the delta is buffered and folded in lazily.
  /// Replay re-derives from the journaled deltas either way, and the
  /// recovery tests pin both paths to fingerprint-identical results.
  void record_commit(std::uint64_t session, std::uint64_t revision,
                     const model::Delta& delta, std::string delta_json,
                     const model::Schedule& schedule, std::string digest,
                     std::shared_ptr<const model::Instance> post_instance);

  /// Convenience form: serializes the delta and digests the schedule
  /// itself, and copies `post_instance` (when given) into the shadow.
  void record_commit(std::uint64_t session, std::uint64_t revision,
                     const model::Delta& delta,
                     const model::Schedule& schedule,
                     const model::Instance* post_instance = nullptr);

  void record_close(std::uint64_t session);

  /// Compacts now: writes the whole live state as one snapshot record to
  /// journal.wal.tmp, fsyncs, atomically renames over journal.wal, and
  /// switches the writer. Crash-safe at every step (the old journal stays
  /// valid until the rename). Throws on failure; automatic compaction
  /// (every snapshot_every records) swallows the error and keeps
  /// appending to the old file instead.
  void snapshot();

  /// Unconditional fsync of the current file (shutdown, tests).
  void sync();

  JournalStats stats() const;
  const JournalConfig& config() const { return config_; }
  std::string wal_path() const;
  std::string lock_path() const;

 private:
  struct Shadow {
    std::uint64_t epoch = 0;
    std::uint64_t revision = 0;
    /// As of the last materialization; `pending` holds the committed
    /// deltas not yet folded in. Building an Instance indexes every bag,
    /// so folding eagerly would tax every ack with work only snapshots and
    /// recovery actually consume — deltas are buffered and folded in one
    /// pass (model::apply_deltas, one Instance build) when (and only when)
    /// the instance is read. Live commits share the session's own
    /// immutable instance here.
    std::shared_ptr<const model::Instance> instance;
    std::vector<model::Delta> pending;
    model::Schedule schedule;
    util::Json tuning;
    /// The last committed delta (none at revision 0), encoded only when
    /// read: into a snapshot, or once per session at the end of replay.
    std::optional<model::Delta> last_delta;
    std::string digest;
  };

  /// Parses one replayed record and funnels it into the same typed
  /// mutation path (open_shadow/commit_shadow) the live appends use.
  void ingest_locked(const util::Json& record);
  /// The shared typed mutation paths: the revision invariant and shadow
  /// updates run through here whether the record arrives live or from
  /// replay (live appends validate, then write, then mutate — an append
  /// failure must leave the shadow untouched).
  void open_shadow_locked(std::uint64_t session, Shadow shadow);
  Shadow& checked_commit_shadow_locked(std::uint64_t session,
                                       std::uint64_t revision);
  void apply_commit_locked(
      std::uint64_t session, Shadow& shadow, const model::Delta& delta,
      model::Schedule schedule, std::string digest,
      std::shared_ptr<const model::Instance> post_instance);
  /// Folds `pending` into the shadow instance (PersistError on a delta
  /// that does not apply — a corrupt journal, not a torn tail).
  void materialize_locked(std::uint64_t session, Shadow& shadow);
  /// Record-count/byte bookkeeping + auto-compaction; call after append.
  void appended_locked(std::size_t payload_bytes);
  util::Json snapshot_record_locked();
  void snapshot_locked(bool rethrow);

  /// The WAL policy the file is opened with: under Interval the journal
  /// runs its own background flusher (see flusher_main) and keeps the WAL
  /// itself at Off so appends — the ack path — never block on an fsync.
  FsyncPolicy wal_policy() const;
  void flusher_main();

  JournalConfig config_;
  int lock_fd_ = -1;
  Wal wal_;
  std::vector<std::string> pending_replay_;  ///< records found at open
  bool replayed_ = false;

  std::thread flusher_;
  std::mutex flusher_mutex_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;               ///< guarded by flusher_mutex_
  bool dirty_since_flush_ = false;          ///< guarded by mutex_

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Shadow> sessions_;  ///< ordered: stable snapshots
  std::uint64_t max_session_id_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  /// Every counter. fsyncs holds the flusher's syncs plus those of WALs
  /// already rotated out by a snapshot; stats() adds the live WAL's and
  /// reads the two gauges (live_sessions, journal_bytes) off the shadows
  /// and the file.
  JournalStats stats_;
};

}  // namespace bagsched::persist
