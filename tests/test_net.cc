// Tests for the sched_server network subsystem: NDJSON line framing under
// pathological byte streams (split / merged / oversized / CRLF), wire
// protocol round trips against a live loopback server (submit + streamed
// progress, structured errors, load shedding, cancel, multiplexing),
// concurrent multi-client admission, mid-stream disconnect cleanup,
// graceful drain, the /metrics endpoint, and a kill-and-reconnect soak.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "hog_request.h"
#include "model/delta.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "persist/journal.h"
#include "util/json.h"

namespace bagsched {
namespace {

using net::Client;
using net::LineFramer;
using net::SchedServer;
using net::ServerConfig;
using util::Json;

api::SolveRequest quick_request(std::uint64_t seed = 1,
                                const char* solver = "greedy-bags") {
  api::SolveOptions options;
  options.seed = seed;
  return api::make_request(api::make_instance("uniform", 30, 4, options),
                           options, {solver});
}

ServerConfig test_config() {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  return config;
}

// --- LineFramer ------------------------------------------------------------

TEST(FramingTest, SplitsMergedFramesAndReassemblesSplitOnes) {
  LineFramer framer;
  // Three frames merged into one read...
  framer.feed("{\"a\":1}\n{\"b\":2}\n{\"c\"", 20);
  EXPECT_EQ(framer.next().value(), "{\"a\":1}");
  EXPECT_EQ(framer.next().value(), "{\"b\":2}");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_EQ(framer.buffered(), 4u);
  // ...and the third split across two more reads, byte by byte.
  const std::string tail = ":3}\n";
  for (const char c : tail) framer.feed(&c, 1);
  EXPECT_EQ(framer.next().value(), "{\"c\":3}");
  EXPECT_FALSE(framer.overflowed());
}

TEST(FramingTest, ToleratesCrlfAndDeliversEmptyLines) {
  LineFramer framer;
  framer.feed("{\"a\":1}\r\n\r\n{\"b\":2}\n");
  EXPECT_EQ(framer.next().value(), "{\"a\":1}");
  EXPECT_EQ(framer.next().value(), "");  // blank keep-alive line
  EXPECT_EQ(framer.next().value(), "{\"b\":2}");
  EXPECT_FALSE(framer.next().has_value());
}

TEST(FramingTest, OversizedLineTripsStickyOverflow) {
  LineFramer framer(16);
  framer.feed("{\"ok\":1}\n");
  framer.feed(std::string(64, 'x'));
  EXPECT_EQ(framer.next().value(), "{\"ok\":1}");  // prior lines survive
  EXPECT_TRUE(framer.overflowed());
  // Sticky: further feeds are ignored, no resynchronization is attempted.
  framer.feed("\n{\"late\":2}\n");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_TRUE(framer.overflowed());
}

TEST(FramingTest, ByteAtATimeFuzzAgainstWholeFeed) {
  // The same byte stream fed in 1-byte, 3-byte and single-shot chunks must
  // produce identical line sequences.
  std::string stream;
  for (int i = 0; i < 40; ++i) {
    stream += "{\"i\":" + std::to_string(i) + "}";
    stream += (i % 3 == 0) ? "\r\n" : "\n";
  }
  const auto collect = [&stream](std::size_t chunk) {
    LineFramer framer;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      framer.feed(stream.data() + at, std::min(chunk, stream.size() - at));
    }
    std::vector<std::string> lines;
    while (auto line = framer.next()) lines.push_back(*line);
    return lines;
  };
  const auto whole = collect(stream.size());
  EXPECT_EQ(whole.size(), 40u);
  EXPECT_EQ(collect(1), whole);
  EXPECT_EQ(collect(3), whole);
}

// --- Protocol helpers ------------------------------------------------------

TEST(ProtocolTest, ClientIdCanonicalizesStringsAndIntegers) {
  // The argument is the raw JSON text of the id member.
  EXPECT_EQ(net::client_id_text("\"job-7\""), "job-7");
  EXPECT_EQ(net::client_id_text("\"j\\u006fb\""), "job");
  EXPECT_EQ(net::client_id_text("42"), "42");
  EXPECT_EQ(net::client_id_text("4.2e1"), "42");
  EXPECT_THROW(net::client_id_text("null"), std::runtime_error);
  EXPECT_THROW(net::client_id_text("1.5"), std::runtime_error);
  EXPECT_THROW(net::client_id_text("\"\""), std::runtime_error);
  EXPECT_THROW(net::client_id_text("[1]"), std::runtime_error);
}

TEST(ProtocolTest, ProgressKindNamesRoundTrip) {
  for (const auto kind :
       {api::ProgressKind::Queued, api::ProgressKind::Started,
        api::ProgressKind::Phase, api::ProgressKind::Incumbent,
        api::ProgressKind::Finished}) {
    EXPECT_EQ(net::progress_kind_from_string(
                  std::string(api::to_string(kind))),
              kind);
  }
  EXPECT_THROW(net::progress_kind_from_string("nope"), std::runtime_error);
}

// --- Live loopback server --------------------------------------------------

TEST(NetServerTest, SubmitStreamsProgressAndMatchesLocalSolve) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  std::vector<api::ProgressKind> kinds;
  const auto result = client.solve(
      quick_request(7), "req-1", /*want_progress=*/true,
      [&kinds](const api::ProgressEvent& event) {
        kinds.push_back(event.kind);
      });
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.schedule_feasible);
  // Queued and Started always stream; Finished terminates client-side.
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds.front(), api::ProgressKind::Queued);
  EXPECT_EQ(kinds[1], api::ProgressKind::Started);

  // Deterministic solver: the remote result matches an in-process solve.
  const api::SolveOptions options{.seed = 7};
  const auto local = api::solve(
      "greedy-bags", api::make_instance("uniform", 30, 4, options), options);
  EXPECT_DOUBLE_EQ(result.makespan, local.makespan);
  EXPECT_GT(result.schedule.num_jobs(), 0);

  server.stop();
  server.wait();
}

TEST(NetServerTest, ScheduleCanBeOmittedFromTheFinishedFrame) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto result = client.solve(quick_request(), "1",
                                   /*want_progress=*/false, {},
                                   /*want_schedule=*/false);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.schedule.num_jobs(), 0);
  EXPECT_GT(result.makespan, 0.0);
  server.stop();
  server.wait();
}

TEST(NetServerTest, MultiplexesRequestsOnOneConnection) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    client.submit(quick_request(static_cast<std::uint64_t>(i + 1)),
                  std::to_string(i));
  }
  int finished = 0;
  while (finished < kRequests) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "server closed early";
    if (frame->string_or("type", "") == "event" &&
        frame->string_or("event", "") == "finished") {
      ++finished;
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "feasible");
    }
  }
  server.stop();
  server.wait();
}

TEST(NetServerTest, StructuredErrorsForGarbageAndBadRequests) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  client.send_line("this is not json");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "error");
  EXPECT_EQ(frame->string_or("code", ""), "parse_error");

  client.send_line("{\"type\":\"submit\",\"id\":\"x\"}");  // no request
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "bad_request");
  EXPECT_EQ(frame->string_or("id", ""), "x");

  Json request = api::to_json(quick_request());
  request.set("solvers", Json::parse("[\"no-such-solver\"]"));
  Json bad = Json::object();
  bad.set("type", "submit");
  bad.set("id", "y");
  bad.set("request", std::move(request));
  client.send_line(bad.dump());
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "unknown_solver");
  EXPECT_EQ(frame->string_or("id", ""), "y");

  client.send_line("{\"type\":\"warble\"}");
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "bad_request");

  // The connection survived all of it: a real solve still works.
  EXPECT_TRUE(client.solve(quick_request(), "ok-1").ok());

  const auto counters = server.counters();
  EXPECT_EQ(counters.parse_errors, 1u);
  server.stop();
  server.wait();
}

/// The frame corpus below, sent line by line over one connection, and the
/// (type, code-or-event-or-op, id) of every frame each line answers with.
/// The expectations were recorded from the server that decoded frames
/// through a Json tree: the typed decoder must answer every line alike —
/// malformed, escaped-key, duplicate-key and wrong-typed lines included.
struct ExpectedFrame {
  const char* type;
  const char* tag;  ///< "code" of errors, "event" of events, "op" of oks
  const char* id;   ///< nullptr: the frame carries no id
};

TEST(NetServerTest, FrameCorpusGetsTheTreeDecodersAnswers) {
  const std::string r =
      R"({"instance":{"machines":2,"bags":2,"jobs":[{"size":1,"bag":0},)"
      R"({"size":2,"bag":1},{"size":1.5,"bag":0}]},"solvers":["greedy-bags"]})";
  const std::vector<std::pair<std::string, std::vector<ExpectedFrame>>>
      corpus = {
      {"this is not json",
       {{"error", "parse_error", nullptr}}},
      {"[1,2]",
       {{"error", "bad_request", nullptr}}},
      {"42",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"ping\"}",
       {{"pong", "", nullptr}}},
      {"{\"type\":\"ping\",\"proto_version\":99}",
       {{"error", "unsupported_version", nullptr}}},
      {"{\"type\":\"ping\",\"proto_version\":\"3\"}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"ping\",\"proto_version\":1.5}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"ping\",\"proto_version\":2}",
       {{"pong", "", nullptr}}},
      {"{\"\\u0074ype\":\"ping\"}",
       {{"pong", "", nullptr}}},
      {"{\"type\":\"submit\",\"type\":\"ping\"}",
       {{"pong", "", nullptr}}},
      {"{\"type\":\"ping\",\"type\":\"submit\",\"id\":\"d1\"}",
       {{"error", "bad_request", "d1"}}},
      {"{\"type\":\"submit\"}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"submit\",\"id\":null,\"request\":" + r + "}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"submit\",\"id\":\"\",\"request\":" + r + "}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"submit\",\"id\":1.5,\"request\":" + r + "}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"submit\",\"id\":\"s1\",\"request\":" + r + "}",
       {{"event", "finished", "s1"}}},
      {"{\"type\":\"submit\",\"id\":42,\"request\":" + r + "}",
       {{"event", "finished", "42"}}},
      {"{\"type\":\"submit\",\"id\":\"s\\u0032\",\"request\":" + r + ",\"schedule\":false}",
       {{"event", "finished", "s2"}}},
      {"{\"type\":\"submit\",\"id\":\"m1\",\"request\":{\"solvers\":[\"greedy-bags\"]}}",
       {{"error", "bad_request", "m1"}}},
      {"{\"type\":\"submit\",\"id\":\"m2\",\"request\":{\"instance\":{\"machines\":-1,\"bags\":1,\"jobs\":[]}}}",
       {{"error", "bad_request", "m2"}}},
      {"{\"type\":\"submit\",\"id\":\"m3\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":-1,\"bag\":0}]}}}",
       {{"error", "bad_request", "m3"}}},
      {"{\"type\":\"submit\",\"id\":\"m4\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"bag\":0}]}}}",
       {{"error", "bad_request", "m4"}}},
      {"{\"type\":\"submit\",\"id\":\"m5\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":\"many\"}}}",
       {{"error", "bad_request", "m5"}}},
      {"{\"type\":\"submit\",\"id\":\"u1\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"solvers\":[\"no-such-solver\"]}}",
       {{"error", "unknown_solver", "u1"}}},
      {"{\"type\":\"submit\",\"id\":\"w1\",\"progress\":\"yes\",\"schedule\":1,\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"options\":{\"eps\":\"x\",\"max_nodes\":true,\"seed\":\"9\"},\"priority\":\"high\",\"solvers\":[\"greedy-bags\"]}}",
       {{"event", "finished", "w1"}}},
      {"{\"type\":\"submit\",\"id\":\"w2\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"options\":7,\"solvers\":[\"greedy-bags\"]}}",
       {{"event", "finished", "w2"}}},
      {"{\"type\":\"submit\",\"id\":\"w3\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"options\":{\"cache_mode\":\"sometimes\"}}}",
       {{"error", "bad_request", "w3"}}},
      {"{\"type\":\"submit\",\"id\":\"w4\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"deadline_seconds\":\"soon\"}}",
       {{"error", "bad_request", "w4"}}},
      {"{\"type\":\"submit\",\"id\":\"w5\",\"request\":{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]},\"priority\":1.5}}",
       {{"error", "bad_request", "w5"}}},
      {"{\"type\":\"submit\",\"id\":\"k1\",\"request\":5,\"request\":" + r + "}",
       {{"event", "finished", "k1"}}},
      {"{\"type\":\"submit\",\"id\":\"k2\",\"request\":" + r + ",\"request\":5}",
       {{"error", "bad_request", "k2"}}},
      {"{\"type\":\"submit\",\"id\":\"k3\",\"request\":{\"instance\":5,\"\\u0069nstance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,\"bag\":0}]}}}",
       {{"event", "finished", "k3"}}},
      {"{\"type\":\"submit\",\"id\":\"k4\",\"id\":\"k5\",\"request\":" + r + "}",
       {{"event", "finished", "k5"}}},
      {"{\"type\":\"cancel\",\"id\":\"nope\"}",
       {{"error", "unknown_id", "nope"}}},
      {"{\"type\":\"cancel\"}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"delta\",\"id\":\"d\",\"session\":5,\"delta\":{}}",
       {{"error", "unknown_session", "d"}}},
      {"{\"type\":\"delta\",\"id\":\"d2\",\"delta\":{}}",
       {{"error", "bad_request", "d2"}}},
      {"{\"type\":\"delta\"}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"delta\",\"id\":\"d3\",\"session\":5,\"delta\":{\"arrivals\":[{\"size\":1}]}}",
       {{"error", "bad_request", "d3"}}},
      {"{\"type\":\"close_session\",\"id\":\"c\",\"session\":0}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"close_session\",\"id\":\"c0\",\"session\":9}",
       {{"error", "unknown_session", "c0"}}},
      {"{\"type\":\"resume_session\",\"id\":\"r\",\"session\":3,\"epoch\":\"abc\"}",
       {{"error", "bad_request", "r"}}},
      {"{\"type\":\"resume_session\",\"id\":\"r2\",\"session\":3,\"epoch\":\"7\"}",
       {{"error", "unknown_session", "r2"}}},
      {"{\"type\":\"open_session\",\"id\":\"o1\",\"request\":" + r + "}",
       {{"ok", "open_session", "o1"}, {"event", "finished", "o1"}}},
      {"{\"type\":\"open_session\",\"id\":\"o2\",\"request\":" + r + ",\"regret_bound\":-1}",
       {{"error", "bad_request", "o2"}}},
      {"{\"type\":\"delta\",\"id\":\"dd1\",\"session\":1,\"schedule\":false,\"delta\":{\"arrivals\":[{\"size\":0.5,\"bag\":2}]}}",
       {{"event", "finished", "dd1"}}},
      {"{\"type\":\"delta\",\"id\":\"dd2\",\"session\":1,\"delta\":{\"departures\":[-1]}}",
       {{"error", "bad_request", "dd2"}}},
      {"{\"type\":\"delta\",\"id\":\"dd3\",\"session\":1,\"delta\":{\"machines_added\":\"two\",\"resizes\":[{\"job\":0,\"size\":2.5}]}}",
       {{"event", "finished", "dd3"}}},
      {"{\"type\":\"delta\",\"id\":\"dd4\",\"session\":1,\"expect_revision\":\"x\",\"delta\":{}}",
       {{"error", "bad_request", "dd4"}}},
      {"{\"type\":\"close_session\",\"id\":\"c1\",\"session\":1}",
       {{"ok", "close_session", "c1"}}},
      {"{\"type\":\"stats\"}",
       {{"stats", "", nullptr}}},
      {"{\"type\":\"warble\"}",
       {{"error", "bad_request", nullptr}}},
      {"{}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":7}",
       {{"error", "bad_request", nullptr}}},
      {"{\"type\":\"ping\"} trailing",
       {{"error", "parse_error", nullptr}}},
      {"{\"type\":\"ping\",\"x\":1e400}",
       {{"error", "parse_error", nullptr}}},
      {"{\"type\":\"ping\",\"x\":[1,2,{\"y\":\"\\uD83D\\uDE00\"}]}",
       {{"pong", "", nullptr}}},
      {"{\"type\":\"ping\",\"x\":\"\\uDE00\"}",
       {{"error", "parse_error", nullptr}}},
      {"{\"type\":\"ping\",",
       {{"error", "parse_error", nullptr}}},
      };
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  for (const auto& [line, expected] : corpus) {
    client.send_line(line);
    for (const ExpectedFrame& want : expected) {
      const auto frame = client.read_frame(10.0);
      ASSERT_TRUE(frame.has_value()) << line;
      EXPECT_EQ(frame->string_or("type", ""), want.type) << line;
      EXPECT_EQ(frame->string_or(
                    "code", frame->string_or(
                                "event", frame->string_or("op", ""))),
                want.tag)
          << line;
      if (want.id == nullptr) {
        EXPECT_FALSE(frame->contains("id")) << line;
      } else {
        EXPECT_EQ(frame->string_or("id", ""), want.id) << line;
      }
    }
  }
  // Nothing beyond the expected frames: the next answer is the pong.
  client.send_line("{\"type\":\"ping\"}");
  const auto frame = client.read_frame(10.0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  server.stop();
  server.wait();
}

TEST(NetServerTest, OversizedFrameGetsErrorThenClose) {
  auto config = test_config();
  config.max_frame_bytes = 1024;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line(std::string(4096, 'x'));
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "oversized_frame");
  // The stream cannot be resynchronized: the server closes after the error.
  EXPECT_FALSE(client.read_frame().has_value());
  EXPECT_EQ(server.counters().oversized_frames, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, DuplicateAndUnknownIdsAreStructuredErrors) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  client.submit(hog_request(), "dup");
  client.submit(quick_request(), "dup");
  bool saw_duplicate = false;
  while (!saw_duplicate) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("type", "") != "error") continue;
    EXPECT_EQ(frame->string_or("code", ""), "duplicate_id");
    EXPECT_EQ(frame->string_or("id", ""), "dup");
    saw_duplicate = true;
  }

  client.cancel("never-submitted");
  bool saw_unknown = false;
  while (!saw_unknown) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("type", "") != "error") continue;
    EXPECT_EQ(frame->string_or("code", ""), "unknown_id");
    saw_unknown = true;
  }

  client.cancel("dup");  // release the slow solve before teardown
  server.stop();
  server.wait();
}

TEST(NetServerTest, CancelResolvesWithCancelledStatus) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.submit(hog_request(), "slow", /*want_progress=*/true);
  // Wait for Started so the cancel lands mid-solve, then cancel.
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "started") break;
  }
  client.cancel("slow");
  bool saw_ok = false;
  bool saw_finished = false;
  while (!saw_finished) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    const std::string type = frame->string_or("type", "");
    if (type == "ok") {
      EXPECT_EQ(frame->string_or("op", ""), "cancel");
      saw_ok = true;
    }
    if (frame->string_or("event", "") == "finished") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "cancelled");
      saw_finished = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_EQ(server.counters().cancels, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, LoadShedsWithStructuredRejectionFrames) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  config.service.max_queue_depth = 1;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // One solve occupies the slot, one sits in the queue; the rest must come
  // back as structured rejection frames, not dropped connections.
  client.submit(hog_request(), "hog");
  client.submit(hog_request(), "queued");
  const int kOverflow = 4;
  int rejections = 0;
  for (int i = 0; i < kOverflow; ++i) {
    const auto result =
        client.solve(quick_request(), "over-" + std::to_string(i));
    EXPECT_EQ(result.status, api::SolveStatus::Cancelled);
    EXPECT_NE(result.error.find("rejected"), std::string::npos);
    ++rejections;
  }
  EXPECT_EQ(rejections, kOverflow);
  EXPECT_EQ(server.service().stats().rejected,
            static_cast<std::uint64_t>(kOverflow));
  client.cancel("hog");
  client.cancel("queued");
  server.stop();
  server.wait();
}

TEST(NetServerTest, StatsFrameCarriesServiceCacheAndServerSections) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.solve(quick_request(), "warm").ok());
  const Json stats = client.stats();
  EXPECT_EQ(stats.at("service").at("submitted").as_int(), 1);
  EXPECT_EQ(stats.at("service").at("finished").as_int(), 1);
  EXPECT_GE(stats.at("server").at("frames_in").as_int(), 2);
  EXPECT_EQ(stats.at("server").at("connections_active").as_int(), 1);
  EXPECT_TRUE(stats.at("cache").find("entries") != nullptr);
  server.stop();
  server.wait();
}

TEST(NetServerTest, StatsFrameAndMetricsRenderTheSameFields) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  api::SolveRequest cached = quick_request(4);
  cached.options.cache_mode = api::CacheMode::ReadWrite;
  EXPECT_TRUE(client.solve(cached, "fill").ok());
  EXPECT_TRUE(client.solve(cached, "hit").ok());
  EXPECT_TRUE(client.solve(quick_request(5), "plain").ok());
  server.service().wait_idle();

  const Json stats = client.stats();
  std::map<std::string, std::string> series;  // name -> sample text
  std::istringstream body(net::fetch_metrics("127.0.0.1", server.port()));
  for (std::string line; std::getline(body, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    series[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(stats.at("cache").at("hits").as_int(), 1);
  for (const std::string group : {"service", "cache", "server"}) {
    for (const auto& [key, value] : stats.at(group).as_object()) {
      SCOPED_TRACE(group + "." + key);
      const std::string name = "bagsched_" + group + "_" + key;
      auto it = series.find(name + "_total");
      if (it == series.end()) it = series.find(name);
      ASSERT_TRUE(it != series.end()) << "no series " << name << "[_total]";
      // The server's own counters moved between the two reads (the stats
      // frame, the scrape); the service and the cache sat still. Samples
      // print six decimals, so the one real-valued gauge (the queue-wait
      // EWMA) matches to 1e-6.
      if (group != "server") {
        EXPECT_NEAR(std::stod(it->second), value.as_number(), 1e-6);
      }
    }
  }
  server.stop();
  server.wait();
}

TEST(NetServerTest, ResumeSessionRejectsEpochsThatAreNotPlainDigits) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  for (const char* epoch : {"-1", " 12", "12abc", ""}) {
    SCOPED_TRACE(epoch);
    Json frame = Json::object();
    frame.set("type", "resume_session");
    frame.set("id", "r");
    frame.set("session", 1LL);
    frame.set("epoch", epoch);
    client.send_line(frame.dump());
    std::optional<Json> reply;
    do {
      reply = client.read_frame(5.0);
      ASSERT_TRUE(reply.has_value());
    } while (reply->string_or("type", "") != "error");
    EXPECT_EQ(reply->string_or("code", ""), "bad_request");
    EXPECT_EQ(reply->string_or("id", ""), "r");
  }
  EXPECT_EQ(server.counters().resume_rejects, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, PingPong) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line("{\"type\":\"ping\"}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  server.stop();
  server.wait();
}

TEST(NetServerTest, MetricsEndpointServesPrometheusText) {
  SchedServer server(test_config());
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.solve(quick_request(), "m").ok());
  }
  const std::string body = net::fetch_metrics("127.0.0.1", server.port());
  EXPECT_NE(body.find("# TYPE bagsched_service_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_service_submitted_total 1"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_service_queue_depth 0"), std::string::npos);
  EXPECT_NE(body.find("bagsched_server_connections_accepted"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_cache_entries"), std::string::npos);
  EXPECT_EQ(server.counters().metrics_requests, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, ManyConcurrentClientsAllGetTheirResults) {
  // The acceptance bar: >= 64 clients served concurrently on one poll
  // loop, every one getting its own correct result back.
  auto config = test_config();
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  SchedServer server(config);
  server.start();

  const int kClients = 64;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&server, &ok_count, i] {
      auto client = Client::connect("127.0.0.1", server.port());
      const auto result = client.solve(
          quick_request(static_cast<std::uint64_t>(i % 5 + 1)),
          "c" + std::to_string(i));
      if (result.ok() && result.schedule_feasible) ++ok_count;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(server.counters().connections_accepted,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(server.service().stats().finished,
            static_cast<std::uint64_t>(kClients));
  server.stop();
  server.wait();
}

TEST(NetServerTest, MidStreamDisconnectCancelsOrphanedSolves) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  SchedServer server(config);
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    client.submit(hog_request(), "orphan", /*want_progress=*/true);
    for (;;) {
      auto frame = client.read_frame();
      ASSERT_TRUE(frame.has_value());
      if (frame->string_or("event", "") == "started") break;
    }
    client.abort();  // RST mid-solve, no goodbye
  }
  // The orphan must be cancelled so its slot frees up; a new client's
  // solve on the single slot proves the release (it would otherwise block
  // behind 30 s of exact search).
  auto client = Client::connect("127.0.0.1", server.port());
  const auto result = client.solve(quick_request(), "next");
  EXPECT_TRUE(result.ok());
  EXPECT_GE(server.counters().disconnect_cancels, 1u);
  server.stop();
  server.wait();
  // And nothing leaked: the service settled every request it accepted.
  const auto stats = server.service().stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.submitted, stats.finished);
}

TEST(NetServerTest, GracefulDrainFlushesResultsThenRefusesSubmits) {
  auto config = test_config();
  // Generous: the solve must finish well inside the grace even under
  // ASan, or the drain cancels it and the test sees "cancelled".
  config.drain_grace_seconds = 60.0;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  // The in-flight solve must outlast the late submit below: an exact
  // search on 60 jobs runs into its 50 ms time limit and then reports its
  // incumbent as feasible. (A small eptas solve finishes in about a
  // millisecond, and under load the drain could half-close the
  // connection before the late submit was read.) The limit stays short
  // because the listener's port is free from the drain on: the longer
  // the drain, the likelier another process binds that port before the
  // refused-connect check at the end.
  api::SolveOptions options;
  options.time_limit_seconds = 0.05;
  options.seed = 3;
  const auto inflight_request = api::make_request(
      api::make_instance("uniform", 60, 8, options), options, {"exact"});
  client.submit(inflight_request, "inflight", /*want_progress=*/true);
  // Wait until the submit is provably accepted, then drain.
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "queued") break;
  }
  server.request_drain();
  // Past the drain point: this submit must get a structured refusal, not
  // a dropped connection.
  client.submit(quick_request(), "late");

  // The in-flight solve still streams to completion; once everything is
  // flushed the server half-closes and EOF follows.
  bool finished = false;
  bool refused = false;
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value()) break;  // EOF after the drain completed
    if (frame->string_or("event", "") == "finished" &&
        frame->string_or("id", "") == "inflight") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "feasible");
      finished = true;
    }
    if (frame->string_or("type", "") == "error" &&
        frame->string_or("id", "") == "late") {
      EXPECT_EQ(frame->string_or("code", ""), "draining");
      refused = true;
    }
  }
  EXPECT_TRUE(finished);
  EXPECT_TRUE(refused);
  client.close();  // our EOF lets the server retire the connection
  server.wait();   // must return: drain completed
  // New connections are refused once the listener closed.
  EXPECT_THROW(Client::connect("127.0.0.1", server.port()),
               std::runtime_error);
}

TEST(NetServerTest, DrainCancelsOverdueSolvesAfterTheGracePeriod) {
  auto config = test_config();
  config.drain_grace_seconds = 0.2;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.submit(hog_request(), "stuck", /*want_progress=*/true);
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "started") break;
  }
  server.request_drain();
  bool cancelled = false;
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value()) break;
    if (frame->string_or("event", "") == "finished") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "cancelled");
      cancelled = true;
    }
  }
  EXPECT_TRUE(cancelled);
  client.close();
  server.wait();
}

// --- Protocol v2: hello, versioning, sessions ------------------------------

TEST(NetServerTest, HelloHandshakeExposesTheServerProtoVersion) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.server_proto_version(), 0);  // nothing read yet
  client.send_line("{\"type\":\"ping\"}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  // The greeting is swallowed by the client (recorded, not surfaced), so
  // the first visible frame is still the pong a v1 caller expects.
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  EXPECT_EQ(client.server_proto_version(), net::kProtoVersion);
  server.stop();
  server.wait();
}

TEST(NetServerTest, FramesFromTheFutureAreRejectedStructurally) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line("{\"type\":\"ping\",\"proto_version\":99}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "error");
  EXPECT_EQ(frame->string_or("code", ""), "unsupported_version");
  // Declaring the server's own version (or none) proceeds normally.
  client.send_line("{\"type\":\"ping\",\"proto_version\":" +
                   std::to_string(net::kProtoVersion) + "}");
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  EXPECT_EQ(server.counters().version_rejects, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, SessionOpenDeltaCloseOverTheWire) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  const auto request = quick_request(9);
  const auto session = client.open_session(request, "open-1");
  ASSERT_GE(session.id, 1u);
  ASSERT_TRUE(session.initial.ok()) << session.initial.error;
  EXPECT_TRUE(session.initial.schedule_feasible);

  // Apply a delta: one arrival into a fresh bag (always feasible).
  model::Delta delta;
  delta.arrivals.push_back(
      model::JobArrival{0.5, request.instance->num_bags()});
  const auto repaired = client.delta(session.id, delta, "d-1");
  ASSERT_TRUE(repaired.ok()) << repaired.error;
  EXPECT_EQ(repaired.schedule.num_jobs(),
            request.instance->num_jobs() + 1);
  EXPECT_GE(repaired.moved_jobs, 0);
  EXPECT_LE(repaired.migration_ratio, 1.0);

  // A session id this connection never opened is a structured error.
  EXPECT_THROW(client.delta(session.id + 100, delta, "d-bad"),
               std::runtime_error);

  client.close_session(session.id, "close-1");
  EXPECT_THROW(client.delta(session.id, delta, "d-late"),
               std::runtime_error);

  const auto counters = server.counters();
  EXPECT_EQ(counters.session_opens, 1u);
  EXPECT_EQ(counters.session_closes, 1u);
  EXPECT_GE(counters.session_deltas, 1u);
  server.stop();
  server.wait();
}

/// Reads frames until `id`'s finished event and returns its result.
Json finished_result(Client& client, const std::string& id) {
  for (;;) {
    auto frame = client.read_frame(5.0);
    if (!frame.has_value()) throw std::runtime_error("connection closed");
    if (frame->string_or("id", "") == id &&
        frame->string_or("event", "") == "finished") {
      return frame->at("result");
    }
  }
}

TEST(NetServerTest, CancelTakesEffectOnAQueuedDelta) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto session = client.open_session(quick_request(2), "open");
  ASSERT_TRUE(session.initial.ok());

  // The hog holds the only slot, so the delta is still queued when the
  // cancel lands: once the slot frees, it resolves Cancelled without
  // running, and the session stays at revision 0.
  client.submit(hog_request(), "hog");
  model::Delta delta;
  delta.arrivals.push_back(model::JobArrival{0.5, 0});
  Json frame = Json::object();
  frame.set("type", "delta");
  frame.set("id", "queued");
  frame.set("session", session.id);
  frame.set("delta", api::to_json(delta));
  client.send_line(frame.dump());
  client.cancel("queued");
  client.cancel("hog");
  const Json result = finished_result(client, "queued");
  EXPECT_EQ(result.at("status").as_string(), "cancelled");
  EXPECT_EQ(server.service().session_info(session.id)->revision, 0u);

  const auto next = client.delta(session.id, delta, "next", true, 5.0,
                                 /*expect_revision=*/0);
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(api::stat_int(next.stats, "online.revision"), 1);
  server.stop();
  server.wait();
}

TEST(NetServerTest, QueueCapRejectsAnOverCapDelta) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  config.service.max_queue_depth = 1;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto session = client.open_session(quick_request(3), "open");
  ASSERT_TRUE(session.initial.ok());

  client.submit(hog_request(), "hog");
  client.submit(hog_request(), "queued");
  model::Delta delta;
  delta.arrivals.push_back(model::JobArrival{0.5, 0});
  const auto over = client.delta(session.id, delta, "over", true, 5.0);
  EXPECT_EQ(over.status, api::SolveStatus::Cancelled);
  EXPECT_NE(over.error.find("rejected"), std::string::npos);
  EXPECT_EQ(server.service().stats().rejected, 1u);
  EXPECT_EQ(server.service().session_info(session.id)->revision, 0u);
  client.cancel("hog");
  client.cancel("queued");
  server.stop();
  server.wait();
}

TEST(NetServerTest, RequestBudgetBoundsASlowSessionOpen) {
  auto config = test_config();
  config.request_budget_seconds = 0.3;
  config.stuck_grace_seconds = 0.7;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto started = std::chrono::steady_clock::now();
  const auto session =
      client.open_session(hog_request(), "open", -1.0, true, 10.0);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  EXPECT_LT(elapsed, config.request_budget_seconds +
                         config.stuck_grace_seconds);
  // Cut at the budget, the open commits the solver's incumbent.
  ASSERT_TRUE(session.initial.ok()) << session.initial.error;
  EXPECT_TRUE(session.initial.schedule_feasible);
  EXPECT_TRUE(api::stat_bool(session.initial.stats, "deadline_expired"));
  EXPECT_EQ(server.counters().request_timeouts, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, SessionsDieWithTheirConnection) {
  SchedServer server(test_config());
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(quick_request(4), "s");
    ASSERT_TRUE(session.initial.ok());
    EXPECT_EQ(server.service().stats().open_sessions, 1u);
    client.abort();  // RST, no close_session
  }
  // The poll loop notices the disconnect and closes the orphaned session.
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    closed = server.service().stats().open_sessions == 0;
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed);
  server.stop();
  server.wait();
}

TEST(NetServerTest, RecoveringServerRefusesWorkUntilReady) {
  auto config = test_config();
  config.start_recovering = true;
  SchedServer server(config);
  server.start();
  ASSERT_TRUE(server.recovering());

  // Probes see 503 "recovering" — distinguishable from both "down" (no
  // listener) and "draining".
  const auto [status, body] = net::fetch_healthz("127.0.0.1", server.port());
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "recovering\n");

  auto client = Client::connect("127.0.0.1", server.port());
  // Diagnostics still answer...
  const Json stats = client.stats();
  EXPECT_EQ(stats.string_or("type", ""), "stats");
  // ...but work is refused with a structured "recovering" error.
  try {
    client.solve(quick_request(1), "early");
    FAIL() << "expected a recovering error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("recovering"),
              std::string::npos);
  }
  EXPECT_GE(server.counters().recovering_rejects, 1u);

  server.set_ready();
  EXPECT_FALSE(server.recovering());
  const auto [ready_status, ready_body] =
      net::fetch_healthz("127.0.0.1", server.port());
  EXPECT_EQ(ready_status, 200);
  const auto result = client.solve(quick_request(1), "late");
  EXPECT_TRUE(result.ok()) << result.error;
  server.stop();
  server.wait();
}

TEST(NetServerTest, ResumeSessionReclaimsAnOrphanInsideTheLingerWindow) {
  auto config = test_config();
  config.session_linger_seconds = 30.0;
  SchedServer server(config);
  server.start();

  const auto request = quick_request(9);
  model::Delta delta;
  delta.arrivals.push_back(
      model::JobArrival{0.5, request.instance->num_bags()});

  // Open a session, commit one delta, then die without close_session.
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  std::string committed_digest;
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(request, "s1");
    ASSERT_TRUE(session.initial.ok());
    ASSERT_NE(session.epoch, 0u);
    session_id = session.id;
    epoch = session.epoch;
    const auto repaired = client.delta(session.id, delta, "d1");
    ASSERT_TRUE(repaired.ok()) << repaired.error;
    committed_digest = persist::schedule_digest(repaired.schedule);
    client.abort();  // RST, no goodbye
  }

  // The session is parked, not closed: still open service-side.
  bool orphaned = false;
  for (int i = 0; i < 100 && !orphaned; ++i) {
    orphaned = server.counters().sessions_orphaned >= 1;
    if (!orphaned) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(orphaned);
  EXPECT_EQ(server.service().stats().open_sessions, 1u);

  auto reclaimer = Client::connect("127.0.0.1", server.port());
  // A delta into the linger window without resuming first: the session is
  // not bound to this connection, so it must be refused...
  EXPECT_THROW(reclaimer.delta(session_id, delta, "too-early"),
               std::runtime_error);
  // ...a stale epoch token must be refused...
  try {
    reclaimer.resume_session(session_id, epoch + 1, "bad-epoch");
    FAIL() << "expected stale_epoch";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("stale_epoch"),
              std::string::npos);
  }
  // ...an unknown session likewise...
  EXPECT_THROW(reclaimer.resume_session(session_id + 99, epoch, "bad-id"),
               std::runtime_error);
  // ...and the genuine token reclaims the session where it left off.
  const Client::Resumed resumed =
      reclaimer.resume_session(session_id, epoch, "r1");
  EXPECT_EQ(resumed.session, session_id);
  EXPECT_EQ(resumed.epoch, epoch);
  EXPECT_EQ(resumed.revision, 1u);
  EXPECT_EQ(resumed.digest, committed_digest);

  // The reclaimed session keeps working on the new connection.
  model::Delta another;
  another.arrivals.push_back(
      model::JobArrival{0.25, request.instance->num_bags()});
  const auto after = reclaimer.delta(session_id, another, "d2");
  ASSERT_TRUE(after.ok()) << after.error;
  reclaimer.close_session(session_id, "c1");

  const auto counters = server.counters();
  EXPECT_EQ(counters.session_resumes, 1u);
  EXPECT_GE(counters.resume_rejects, 2u);
  EXPECT_EQ(counters.orphans_expired, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, OrphanedSessionsExpireAfterTheLingerWindow) {
  auto config = test_config();
  config.session_linger_seconds = 0.05;
  SchedServer server(config);
  server.start();

  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(quick_request(4), "s");
    ASSERT_TRUE(session.initial.ok());
    session_id = session.id;
    epoch = session.epoch;
    client.abort();
  }
  // The sweep closes the orphan once the linger elapses.
  bool expired = false;
  for (int i = 0; i < 200 && !expired; ++i) {
    expired = server.service().stats().open_sessions == 0;
    if (!expired) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(expired);
  EXPECT_GE(server.counters().orphans_expired, 1u);

  // Too late: even the correct epoch cannot bring it back.
  auto late = Client::connect("127.0.0.1", server.port());
  try {
    late.resume_session(session_id, epoch, "late");
    FAIL() << "expected unknown_session";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown_session"),
              std::string::npos);
  }
  server.stop();
  server.wait();
}

TEST(NetServerTest, ResumeIsRefusedWhileTheSessionIsOwnedElsewhere) {
  auto config = test_config();
  config.session_linger_seconds = 30.0;
  SchedServer server(config);
  server.start();

  auto owner = Client::connect("127.0.0.1", server.port());
  const auto session = owner.open_session(quick_request(5), "s");
  ASSERT_TRUE(session.initial.ok());

  auto thief = Client::connect("127.0.0.1", server.port());
  try {
    thief.resume_session(session.id, session.epoch, "steal");
    FAIL() << "expected session_owned";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("session_owned"),
              std::string::npos);
  }
  // Resuming a session already bound to THIS connection is an idempotent
  // re-acknowledgement, not an error (a retried resume whose ok was lost).
  const Client::Resumed again =
      owner.resume_session(session.id, session.epoch, "again");
  EXPECT_EQ(again.session, session.id);
  EXPECT_EQ(again.revision, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, CloseSessionRacingDrainStaysConsistent) {
  // close_session and request_drain land at the same instant, repeatedly:
  // whichever wins, the server must answer something structured (ok or a
  // draining error), drain to completion, and leave no session behind.
  for (int round = 0; round < 5; ++round) {
    auto config = test_config();
    config.session_linger_seconds = 5.0;  // orphans must not outlive drain
    SchedServer server(config);
    server.start();
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(
        quick_request(static_cast<std::uint64_t>(round)), "s");
    ASSERT_TRUE(session.initial.ok());

    std::thread drainer([&server] { server.request_drain(); });
    try {
      client.close_session(session.id, "race");
    } catch (const std::exception&) {
      // A draining refusal (or a closed connection) is a legal outcome.
    }
    drainer.join();
    // Hang up before waiting: a client still connected would hold the
    // drain open for its full grace period and then the force-close
    // backstop.
    client.close();
    server.wait();
    EXPECT_EQ(server.service().stats().open_sessions, 0u);
    EXPECT_EQ(server.counters().connections_active, 0u);
  }
}

TEST(NetServerTest, SoakManyConnectionsWithKills) {
  // Hundreds of short-lived connections, a third of them killed abruptly
  // (RST) mid-request; the server must neither leak handles nor wedge, and
  // the service must settle to submitted == finished. Sized to stay fast
  // under ASan.
  auto config = test_config();
  SchedServer server(config);
  server.start();

  const int kRounds = 150;
  int clean = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto client = Client::connect("127.0.0.1", server.port());
    if (i % 3 == 2) {
      // Kill mid-stream: submit, read one frame, RST.
      client.submit(quick_request(static_cast<std::uint64_t>(i)), "kill");
      auto frame = client.read_frame();
      client.abort();
      continue;
    }
    const auto result =
        client.solve(quick_request(static_cast<std::uint64_t>(i)), "s");
    if (result.ok()) ++clean;
  }
  EXPECT_EQ(clean, kRounds - kRounds / 3);
  server.service().wait_idle();
  const auto stats = server.service().stats();
  EXPECT_EQ(stats.submitted, stats.finished);
  EXPECT_EQ(stats.active, 0u);
  const auto counters = server.counters();
  EXPECT_EQ(counters.connections_accepted,
            static_cast<std::uint64_t>(kRounds));
  server.stop();
  server.wait();
  EXPECT_EQ(server.counters().connections_active, 0u);
}

}  // namespace
}  // namespace bagsched
