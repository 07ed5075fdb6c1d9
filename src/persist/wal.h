// Append-only write-ahead log file with CRC-framed records (DESIGN.md §8).
//
// On disk a WAL is a flat sequence of records, each framed as
//
//   [u32 length][u32 crc32c(payload)][payload bytes]
//
// with both header words little-endian. The framing makes every torn
// write — a crash mid-record, a short write at the tail — detectable:
// open() scans the file, keeps the longest valid prefix, and truncates
// the rest, so an append either becomes a durable record or vanishes
// entirely. Nothing here interprets payloads; the session journal on top
// gives them meaning.
//
// Durability policy is configured once at open():
//
//   Always    fsync after every append (slowest, strongest)
//   Off       never fsync (page cache only)
//
// Interval (a bounded loss window on power failure) is a session-journal
// policy, not a WAL one: the journal opens its WAL with Off and a
// background flusher syncs it off the append path, so open() rejects it.
//
// Fault points (PR 8 machinery): `persist.append` fails an append before
// any byte is written, `persist.fsync` fails a sync, and
// `persist.crash.append` SIGKILLs the process right after the record hit
// the file but before the caller could ack it — the torn-tail and
// recovery tests are built on these.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bagsched::persist {

/// Filesystem/consistency failure in the persistence layer.
struct PersistError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// When appends are pushed past the page cache; see the header comment.
enum class FsyncPolicy { Always, Interval, Off };

const char* to_string(FsyncPolicy policy);
/// Parses "always" / "interval" / "off"; throws PersistError otherwise.
FsyncPolicy fsync_policy_from_string(const std::string& text);

/// CRC-32C (Castagnoli), the checksum each record's payload is framed
/// with. `crc` chains partial computations; pass 0 to start.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

/// What open() found in an existing file.
struct WalReplay {
  std::vector<std::string> records;    ///< valid prefix, in append order
  std::uint64_t valid_bytes = 0;       ///< file size after tail truncation
  std::uint64_t truncated_bytes = 0;   ///< torn tail dropped (0 = clean)
};

class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) `path`, validates every record, truncates
  /// any torn tail, and leaves the write cursor at the end. `replay`
  /// (optional) receives the surviving records. Throws PersistError when
  /// the file cannot be opened or truncated, or when `policy` is
  /// Interval (see the header comment).
  static Wal open(const std::string& path, FsyncPolicy policy,
                  WalReplay* replay = nullptr);

  /// Appends one framed record and applies the fsync policy. Throws
  /// PersistError on I/O failure (including injected ones); on failure no
  /// ack should be sent — the torn frame, if any, is dropped at next open.
  void append(const std::string& payload);

  /// Unconditional fsync (used by snapshot swaps and shutdown), regardless
  /// of policy. No-op on a closed WAL.
  void sync();

  void close();
  bool is_open() const { return fd_ >= 0; }
  /// Raw descriptor (-1 when closed) — the session journal's background
  /// flusher dups it to fsync without serializing against appends.
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  std::string path_;
  int fd_ = -1;
  FsyncPolicy policy_ = FsyncPolicy::Off;
  std::uint64_t size_bytes_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
};

}  // namespace bagsched::persist
