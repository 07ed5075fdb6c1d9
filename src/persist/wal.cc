#include "persist/wal.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault.h"

namespace bagsched::persist {
namespace {

constexpr std::uint32_t kCrcPolynomial = 0x82f63b78u;  // CRC-32C, reflected
// A record longer than this is not a record — it's a corrupt length word
// pointing past any journal we would ever write.
constexpr std::uint32_t kMaxRecordBytes = 256u * 1024u * 1024u;
constexpr std::size_t kHeaderBytes = 8;

const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t entries[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kCrcPolynomial : crc >> 1;
      }
      entries[i] = crc;
    }
    return entries;
  }();
  return table;
}

void put_u32le(unsigned char* out, std::uint32_t value) {
  out[0] = static_cast<unsigned char>(value & 0xffu);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xffu);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xffu);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xffu);
}

std::uint32_t get_u32le(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

void write_fully(int fd, const void* data, std::size_t size,
                 const std::string& path) {
  const char* cursor = static_cast<const char*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    const ssize_t wrote = ::write(fd, cursor, remaining);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw PersistError("wal: write to " + path + " failed: " +
                         std::strerror(errno));
    }
    cursor += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::Always:
      return "always";
    case FsyncPolicy::Interval:
      return "interval";
    case FsyncPolicy::Off:
      return "off";
  }
  return "?";
}

FsyncPolicy fsync_policy_from_string(const std::string& text) {
  if (text == "always") return FsyncPolicy::Always;
  if (text == "interval") return FsyncPolicy::Interval;
  if (text == "off") return FsyncPolicy::Off;
  throw PersistError("unknown fsync policy \"" + text +
                     "\" (expected always, interval or off)");
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) {
  const std::uint32_t* table = crc_table();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

Wal::~Wal() { close(); }

Wal::Wal(Wal&& other) noexcept { *this = std::move(other); }

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    policy_ = other.policy_;
    size_bytes_ = other.size_bytes_;
    appends_ = other.appends_;
    fsyncs_ = other.fsyncs_;
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

Wal Wal::open(const std::string& path, FsyncPolicy policy,
              WalReplay* replay) {
  if (policy == FsyncPolicy::Interval) {
    throw PersistError("wal: " + path +
                       " opened with the interval policy; the session "
                       "journal's flusher owns the sync window");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw PersistError("wal: cannot open " + path + ": " +
                       std::strerror(errno));
  }

  // Read the whole file and walk the frames; stop at the first frame that
  // does not validate — everything from there on is the torn tail.
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw PersistError("wal: cannot read " + path + ": " +
                         std::strerror(saved));
    }
    if (got == 0) break;
    contents.append(buffer, static_cast<std::size_t>(got));
  }

  std::uint64_t offset = 0;
  std::vector<std::string> records;
  while (contents.size() - offset >= kHeaderBytes) {
    const unsigned char* header =
        reinterpret_cast<const unsigned char*>(contents.data() + offset);
    const std::uint32_t length = get_u32le(header);
    const std::uint32_t expected_crc = get_u32le(header + 4);
    if (length > kMaxRecordBytes) break;
    if (contents.size() - offset - kHeaderBytes < length) break;
    const char* payload = contents.data() + offset + kHeaderBytes;
    if (crc32c(payload, length) != expected_crc) break;
    records.emplace_back(payload, length);
    offset += kHeaderBytes + length;
  }

  const std::uint64_t truncated = contents.size() - offset;
  if (truncated > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      const int saved = errno;
      ::close(fd);
      throw PersistError("wal: cannot truncate torn tail of " + path + ": " +
                         std::strerror(saved));
    }
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    const int saved = errno;
    ::close(fd);
    throw PersistError("wal: cannot seek in " + path + ": " +
                       std::strerror(saved));
  }

  if (replay != nullptr) {
    replay->records = std::move(records);
    replay->valid_bytes = offset;
    replay->truncated_bytes = truncated;
  }

  Wal wal;
  wal.path_ = path;
  wal.fd_ = fd;
  wal.policy_ = policy;
  wal.size_bytes_ = offset;
  return wal;
}

void Wal::append(const std::string& payload) {
  if (fd_ < 0) throw PersistError("wal: append on a closed log");
  if (payload.size() > kMaxRecordBytes) {
    throw PersistError("wal: record of " + std::to_string(payload.size()) +
                       " bytes exceeds the frame limit");
  }
  if (BAGSCHED_FAULT("persist.append")) {
    throw PersistError("wal: injected append failure (persist.append)");
  }

  unsigned char header[kHeaderBytes];
  put_u32le(header, static_cast<std::uint32_t>(payload.size()));
  put_u32le(header + 4, crc32c(payload.data(), payload.size()));

  // Header and payload go out as one write() so a crash between them can't
  // leave a valid-looking header over garbage (the CRC would catch it
  // anyway, but one syscall is also faster).
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(reinterpret_cast<const char*>(header), kHeaderBytes);
  frame.append(payload);
  write_fully(fd_, frame.data(), frame.size(), path_);
  size_bytes_ += frame.size();
  ++appends_;

  // The record is on file but the caller has not acked it yet — the chaos
  // tests SIGKILL exactly here to prove recovery tolerates that window.
  if (BAGSCHED_FAULT("persist.crash.append")) {
    ::kill(::getpid(), SIGKILL);
  }

  if (policy_ == FsyncPolicy::Always) sync();
}

void Wal::sync() {
  if (fd_ < 0) return;
  if (BAGSCHED_FAULT("persist.fsync")) {
    throw PersistError("wal: injected fsync failure (persist.fsync)");
  }
  if (::fsync(fd_) != 0) {
    throw PersistError("wal: fsync of " + path_ + " failed: " +
                       std::strerror(errno));
  }
  ++fsyncs_;
}

void Wal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bagsched::persist
