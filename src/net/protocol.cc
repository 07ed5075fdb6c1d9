#include "net/protocol.h"

#include <stdexcept>

#include "api/serialize.h"

namespace bagsched::net {

ClientFrame::ClientFrame(std::string_view line) : text_(line) {
  util::JsonReader reader(line);
  object_ = reader.peek_kind() == util::Json::Kind::Object;
  if (object_) {
    reader.read_object([&](std::string_view key) {
      const std::string_view value = reader.raw_value();
      for (auto& [existing, raw] : members_) {
        if (existing == key) {
          raw = value;
          return;
        }
      }
      members_.emplace_back(key, value);
    });
  } else {
    reader.skip_value();
  }
  reader.expect_end();
}

const std::string_view* ClientFrame::find(std::string_view key) const {
  for (const auto& [existing, raw] : members_) {
    if (existing == key) return &raw;
  }
  return nullptr;
}

bool ClientFrame::bool_or(std::string_view key, bool fallback) const {
  const std::string_view* raw = find(key);
  return raw != nullptr ? util::JsonReader(*raw).bool_or(fallback) : fallback;
}

std::string ClientFrame::string_or(std::string_view key,
                                   std::string fallback) const {
  const std::string_view* raw = find(key);
  if (raw == nullptr) return fallback;
  util::JsonReader reader(*raw);
  if (reader.peek_kind() != util::Json::Kind::String) return fallback;
  return reader.read_string();
}

std::string client_id_text(std::string_view raw) {
  util::JsonReader reader(raw);
  const util::Json::Kind kind = reader.peek_kind();
  if (kind == util::Json::Kind::String) {
    std::string id = reader.read_string();
    if (id.empty()) throw std::runtime_error("id must not be empty");
    return id;
  }
  if (kind == util::Json::Kind::Number) {
    // read_int rejects non-integral and out-of-range numbers loudly.
    return std::to_string(reader.read_int());
  }
  throw std::runtime_error("id must be a string or an integer");
}

api::ProgressKind progress_kind_from_string(const std::string& name) {
  for (const api::ProgressKind kind :
       {api::ProgressKind::Queued, api::ProgressKind::Started,
        api::ProgressKind::Phase, api::ProgressKind::Incumbent,
        api::ProgressKind::Finished}) {
    if (name == api::to_string(kind)) return kind;
  }
  throw std::runtime_error("unknown progress event \"" + name + "\"");
}

std::string event_frame(const std::string& id, const api::ProgressEvent& event,
                        bool include_schedule, bool degraded) {
  const bool with_result =
      event.kind == api::ProgressKind::Finished && event.result != nullptr;
  std::string frame;
  frame.reserve(128 + (with_result && include_schedule
                           ? 4 * static_cast<std::size_t>(
                                     event.result->schedule.num_jobs())
                           : 0));
  frame += "{\"type\":\"event\",\"id\":";
  util::append_json_string(frame, id);
  frame += ",\"event\":";
  util::append_json_string(frame, api::to_string(event.kind));
  if (!event.solver.empty()) {
    frame += ",\"solver\":";
    util::append_json_string(frame, event.solver);
  }
  if (event.kind == api::ProgressKind::Phase) {
    frame += ",\"phase\":";
    util::append_json_string(frame, event.phase);
  }
  if (event.kind == api::ProgressKind::Incumbent) {
    frame += ",\"incumbent_makespan\":";
    util::append_json_number(frame, event.incumbent_makespan);
  }
  frame += ",\"elapsed_seconds\":";
  util::append_json_number(frame, event.elapsed_seconds);
  if (degraded) frame += ",\"degraded\":true";
  if (with_result) {
    frame += ",\"result\":";
    api::append_result(frame, *event.result, include_schedule);
  }
  frame += '}';
  return frame;
}

std::string error_frame(const std::string& code, const std::string& message,
                        const std::string* id) {
  util::Json frame = util::Json::object();
  frame.set("type", "error");
  if (id != nullptr) frame.set("id", *id);
  frame.set("code", code);
  frame.set("message", message);
  return frame.dump();
}

std::string ok_frame(const std::string& op, const std::string& id,
                     std::uint64_t session) {
  util::Json frame = util::Json::object();
  frame.set("type", "ok");
  frame.set("op", op);
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  if (session != 0) frame.set("session", session);
  return frame.dump();
}

std::string session_ok_frame(const std::string& op, const std::string& id,
                             std::uint64_t session, std::uint64_t epoch,
                             std::uint64_t revision,
                             const std::string& digest) {
  util::Json frame = util::Json::object();
  frame.set("type", "ok");
  frame.set("op", op);
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("session", session);
  frame.set("epoch", std::to_string(epoch));
  frame.set("revision", revision);
  if (!digest.empty()) frame.set("digest", digest);
  return frame.dump();
}

std::string pong_frame() {
  util::Json frame = util::Json::object();
  frame.set("type", "pong");
  return frame.dump();
}

std::string hello_frame() {
  util::Json frame = util::Json::object();
  frame.set("type", "hello");
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("server", "bagsched");
  return frame.dump();
}

}  // namespace bagsched::net
