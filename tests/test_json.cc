// Tests for util::Json (parser/writer) and the JSON serialization of
// model and api types: instances, schedules, telemetry, results, requests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "api/api.h"
#include "model/io.h"
#include "net/protocol.h"
#include "util/json.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using util::Json;

// --- util::Json ------------------------------------------------------------

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").kind(), Json::Kind::Null);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_number(), -1e-3);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(JsonTest, DumpParseRoundTripPreservesStructure) {
  Json doc = Json::object();
  doc.set("name", "bagsched");
  doc.set("count", 3);
  doc.set("ratio", 0.125);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json list = Json::array();
  list.push_back(1);
  list.push_back("two");
  list.push_back(false);
  doc.set("list", std::move(list));
  Json nested = Json::object();
  nested.set("inner", -7);
  doc.set("nested", std::move(nested));

  for (const int indent : {-1, 0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back["name"].as_string(), "bagsched");
    EXPECT_EQ(back["count"].as_int(), 3);
    EXPECT_DOUBLE_EQ(back["ratio"].as_number(), 0.125);
    EXPECT_TRUE(back["flag"].as_bool());
    EXPECT_TRUE(back["nothing"].is_null());
    ASSERT_EQ(back["list"].size(), 3u);
    EXPECT_EQ(back["list"][0].as_int(), 1);
    EXPECT_EQ(back["list"][1].as_string(), "two");
    EXPECT_FALSE(back["list"][2].as_bool());
    EXPECT_EQ(back["nested"]["inner"].as_int(), -7);
  }
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  Json doc = Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("z", 3);  // replace, not duplicate
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonTest, NumbersRoundTripBitIdentically) {
  const double values[] = {
      1e-310,                                   // subnormal
      4.9e-324,                                 // smallest subnormal
      -2.2250738585072014e-308,                 // smallest normal
      0.0,
      -0.0,
      1.7976931348623157e308,                   // DBL_MAX
      -1.7976931348623157e308,
      9007199254740992.0,                       // 2^53
      -9007199254740993.0,                      // beyond: not exact
      0.1,
      123456789012345678.0};
  for (const double value : values) {
    Json doc = Json::object();
    doc.set("v", value);
    const double back = Json::parse(doc.dump()).at("v").as_number();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0)
        << doc.dump() << " -> " << back;
  }
  // Subnormal literals as other writers spell them parse too.
  EXPECT_EQ(Json::parse("{\"v\":1e-310}").at("v").as_number(), 1e-310);
  EXPECT_EQ(Json::parse("4.9e-324").as_number(), 4.9e-324);
  // Long integer literals round like any other number.
  for (const char* text :
       {"9007199254740993", "123456789012345678", "9999999999999999999",
        "-9223372036854775809", "18446744073709551616"}) {
    EXPECT_EQ(Json::parse(text).as_number(), std::strtod(text, nullptr))
        << text;
  }
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
  EXPECT_TRUE(std::signbit(Json::parse("-0.0e5").as_number()));
}

TEST(JsonTest, NonJsonNumbersAreRejected) {
  // RFC 8259: no plus sign, no leading zeros, digits on both sides of the
  // point, digits in the exponent; and values beyond double's range.
  for (const char* bad :
       {"+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "--1", "0x10",
        "Infinity", "NaN", "1e400", "-1e400", "1e-400", "[+1]",
        "{\"v\":01}", "{\"v\":.5}"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
    EXPECT_THROW(
        {
          util::JsonReader reader(bad);
          reader.skip_value();
          reader.expect_end();
        },
        std::runtime_error)
        << bad;
  }
  for (const char* good : {"0", "-0", "10", "1.5e3", "1E-3", "2e+2", "-0.5"}) {
    EXPECT_NO_THROW(Json::parse(good)) << good;
  }
}

TEST(JsonTest, DoublesSurviveExactly) {
  const double value = 7.192650113378189;
  const Json back = Json::parse(Json(value).dump());
  EXPECT_EQ(back.as_number(), value);  // bit-exact via %.17g
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string nasty = "quote\" back\\slash \t tab \n newline \x01";
  const Json back = Json::parse(Json(nasty).dump());
  EXPECT_EQ(back.as_string(), nasty);
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8) {
  // \uD83D\uDE00 is U+1F600; mainstream serializers (Python ensure_ascii)
  // emit non-BMP characters this way, so the pair must combine instead of
  // decoding as two invalid 3-byte halves.
  const Json parsed = Json::parse("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(parsed.as_string(), "\xF0\x9F\x98\x80");
  // Lone or mismatched surrogates are malformed input.
  EXPECT_THROW(Json::parse("\"\\uD83D\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\uD83Dx\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\uDE00\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\uD83D\\uD83D\""), std::runtime_error);
}

TEST(JsonTest, ParseErrorsCarryPosition) {
  const auto message = [](auto&& read) {
    try {
      read();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"unterminated",
        "[1] trailing", "{\"a\":}", "{1:2}", "[1 2]", "{\"a\":1 \"b\":2}",
        "[\"\\x\"]", "[\"\\uD83D\"]", "{\"a\":[1e400]}", "[nul]"}) {
    const std::string parsed = message([&] { Json::parse(bad); });
    EXPECT_NE(parsed.find("json parse error at offset"), std::string::npos)
        << bad;
    // Skipping a value rejects it with the same message and offset.
    EXPECT_EQ(message([&] {
                util::JsonReader reader(bad);
                reader.skip_value();
                reader.expect_end();
              }),
              parsed)
        << bad;
  }
}

TEST(JsonTest, DeeplyNestedInputThrowsInsteadOfOverflowing) {
  const std::string bomb(100000, '[');
  EXPECT_THROW(Json::parse(bomb), std::runtime_error);
  EXPECT_THROW(Json::parse(std::string(100000, '[') +
                           std::string(100000, ']')),
               std::runtime_error);
  EXPECT_THROW(util::JsonReader(bomb).skip_value(), std::runtime_error);
  EXPECT_THROW(util::JsonReader(std::string(100000, '{')).skip_value(),
               std::runtime_error);
}

TEST(JsonReaderTest, PullsValuesWithoutATree) {
  const std::string text =
      " {\"a\": [1, -2.5, \"x\\ty\"], \"b\": {\"c\": null}, \"d\": true} ";
  util::JsonReader reader(text);
  std::vector<std::string> keys;
  reader.read_object([&](std::string_view key) {
    keys.emplace_back(key);
    if (key == "a") {
      std::vector<std::string> items;
      reader.read_array([&] {
        if (reader.peek_kind() == Json::Kind::String) {
          items.push_back(reader.read_string());
        } else {
          items.push_back(std::to_string(reader.read_number()));
        }
      });
      EXPECT_EQ(items, (std::vector<std::string>{"1.000000", "-2.500000",
                                                 "x\ty"}));
    } else if (key == "b") {
      EXPECT_EQ(reader.raw_value(), "{\"c\": null}");
    } else {
      EXPECT_TRUE(reader.read_bool());
    }
  });
  reader.expect_end();
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "d"}));
}

TEST(JsonReaderTest, KindErrorsMatchTheTreeAccessors) {
  const auto message = [](auto&& read) {
    try {
      read();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { util::JsonReader("\"7\"").read_number(); }),
            message([] { Json::parse("\"7\"").as_number(); }));
  EXPECT_EQ(message([] { util::JsonReader("2.5").read_int(); }),
            message([] { Json::parse("2.5").as_int(); }));
  EXPECT_EQ(message([] { util::JsonReader("1e19").read_int(); }),
            message([] { Json::parse("1e19").as_int(); }));
  EXPECT_EQ(message([] { util::JsonReader("[]").read_object([](auto) {}); }),
            message([] { Json::parse("[]").as_object(); }));
  // Lenient reads fall back on a kind mismatch, and consume the value.
  util::JsonReader reader("[\"x\", 3, 4.5, true]");
  std::vector<double> got;
  reader.read_array([&] { got.push_back(reader.number_or(-1.0)); });
  EXPECT_EQ(got, (std::vector<double>{-1.0, 3.0, 4.5, -1.0}));
}

TEST(JsonReaderTest, ReadMembersKeepsTheLastDuplicateAndTreeErrorOrder) {
  static constexpr std::array<std::string_view, 2> kKeys = {"a", "b"};
  const auto decode = [](const std::string& text) {
    long long a = 0;
    long long b = 0;
    util::read_document(text, [&](util::JsonReader& reader) {
      util::read_members(reader, kKeys, 0b01, [&](std::size_t field) {
        (field == 0 ? a : b) = reader.read_int();
      });
    });
    return std::to_string(a) + "," + std::to_string(b);
  };
  EXPECT_EQ(decode(R"({"b":1,"a":"x","a":2})"), "2,1");
  EXPECT_EQ(decode(R"({"\u0061":5})"), "5,0");
  // "a" is looked up first: its error wins over "b"'s, wherever it sits.
  EXPECT_THROW(decode(R"({"b":"y","a":"x"})"), std::runtime_error);
  EXPECT_THROW(decode(R"({"b":"y"})"), std::out_of_range);
  // A syntax error anywhere beats every field error.
  try {
    decode(R"({"a":"x","b":[1,}])");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("json parse error"),
              std::string::npos)
        << error.what();
  }
}

TEST(JsonTest, NonIntegralNumbersFailAsInt) {
  EXPECT_THROW(Json(2.7).as_int(), std::runtime_error);
  EXPECT_EQ(Json(3.0).as_int(), 3);
  // A fractional machine count is a malformed document, not machines=3.
  EXPECT_THROW(model::instance_from_json(Json::parse(
                   "{\"machines\": 2.7, \"bags\": 1, \"jobs\": []}")),
               std::runtime_error);
}

TEST(JsonTest, U64TokensAreDigitsOnly) {
  EXPECT_EQ(util::u64_from_json(Json("0")), 0u);
  EXPECT_EQ(util::u64_from_json(Json("18446744073709551615")),
            18446744073709551615ull);
  EXPECT_EQ(util::u64_from_json(Json(12LL)), 12u);
  // std::stoull would read these as 2^64 - 1, 12 and 12.
  for (const char* text : {"-1", " 12", "12abc", "", "+5",
                           "18446744073709551616"}) {
    EXPECT_THROW(util::u64_from_json(Json(text)), std::runtime_error)
        << '"' << text << '"';
  }
  EXPECT_THROW(util::u64_from_json(Json(-1LL)), std::runtime_error);
  EXPECT_THROW(util::u64_from_json(Json(2.5)), std::runtime_error);
  EXPECT_THROW(util::u64_from_json(Json::object()), std::runtime_error);
}

TEST(JsonTest, KindMismatchThrows) {
  const Json number(1.5);
  EXPECT_THROW(number.as_string(), std::runtime_error);
  EXPECT_THROW(number.at("key"), std::runtime_error);
  const Json object = Json::object();
  EXPECT_THROW(object.at("missing"), std::out_of_range);
  EXPECT_EQ(object.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(object.number_or("missing", 2.5), 2.5);
}

// --- model JSON ------------------------------------------------------------

TEST(JsonModelTest, InstanceRoundTrips) {
  const auto instance = gen::by_name("replica", 24, 6, 3);
  const auto back =
      model::instance_from_json(Json::parse(
          model::instance_to_json(instance).dump(2)));
  ASSERT_EQ(back.num_jobs(), instance.num_jobs());
  EXPECT_EQ(back.num_machines(), instance.num_machines());
  EXPECT_EQ(back.num_bags(), instance.num_bags());
  for (model::JobId j = 0; j < instance.num_jobs(); ++j) {
    EXPECT_EQ(back.job(j).size, instance.job(j).size);
    EXPECT_EQ(back.job(j).bag, instance.job(j).bag);
  }
}

TEST(JsonModelTest, MalformedInstanceJsonThrows) {
  // validate() runs on the parsed document: a bag id out of range throws.
  const char* bad =
      "{\"machines\": 2, \"bags\": 1, \"jobs\": [{\"size\": 1, \"bag\": 5}]}";
  EXPECT_THROW(model::instance_from_json(Json::parse(bad)),
               std::invalid_argument);
  EXPECT_THROW(model::instance_from_json(Json::parse("{}")),
               std::out_of_range);
}

TEST(JsonModelTest, ScheduleJsonRejectsOutOfRangeMachineIds) {
  EXPECT_THROW(
      model::schedule_from_json(Json::parse(
          "{\"machines\": 2, \"assignment\": [5, 0]}")),
      std::runtime_error);
  EXPECT_THROW(
      model::schedule_from_json(Json::parse(
          "{\"machines\": 2, \"assignment\": [-3, 0]}")),
      std::runtime_error);
}

TEST(JsonModelTest, ScheduleRoundTripsIncludingUnassigned) {
  model::Schedule schedule(4, 3);
  schedule.assign(0, 2);
  schedule.assign(1, 0);
  schedule.assign(3, 1);  // job 2 stays unassigned (-1)
  const auto back = model::schedule_from_json(
      Json::parse(model::schedule_to_json(schedule).dump()));
  ASSERT_EQ(back.num_jobs(), 4);
  EXPECT_EQ(back.num_machines(), 3);
  EXPECT_EQ(back.assignment(), schedule.assignment());
  EXPECT_FALSE(back.is_assigned(2));
}

// --- api JSON ---------------------------------------------------------------

TEST(JsonApiTest, TelemetryRoundTripsWithTypes) {
  api::Telemetry stats;
  stats["nodes"] = 12345LL;
  stats["gap"] = 0.0125;
  stats["certified"] = true;
  stats["note"] = std::string("hello world");
  const api::Telemetry back =
      api::telemetry_from_json(Json::parse(api::to_json(stats).dump()));
  EXPECT_EQ(api::stat_int(back, "nodes"), 12345);
  EXPECT_DOUBLE_EQ(api::stat_real(back, "gap"), 0.0125);
  EXPECT_TRUE(api::stat_bool(back, "certified"));
  EXPECT_EQ(api::stat_str(back, "note"), "hello world");
  // The type tags keep long long and double distinct through the trip.
  EXPECT_TRUE(std::holds_alternative<long long>(back.at("nodes")));
  EXPECT_TRUE(std::holds_alternative<double>(back.at("gap")));
}

TEST(JsonApiTest, ControlCharacterStringsStayWireSafe) {
  // Strings carrying every byte the JSON grammar forbids raw must still
  // produce a single parseable line — the NDJSON wire protocol frames on
  // '\n', so an unescaped control character would corrupt the stream.
  std::string hostile;
  for (int c = 0; c < 0x20; ++c) hostile += static_cast<char>(c);
  hostile += "\"backslash\\slash/\x7f";
  api::Telemetry stats;
  stats["hostile"] = hostile;
  const std::string dumped = api::to_json(stats).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(dumped.find('\r'), std::string::npos);
  const api::Telemetry back =
      api::telemetry_from_json(Json::parse(dumped));
  EXPECT_EQ(api::stat_str(back, "hostile"), hostile);
}

TEST(JsonApiTest, NonFiniteTelemetryRoundTrips) {
  // The writer renders bare non-finite doubles as null (JSON has no NaN);
  // the telemetry layer's tagged encoding must survive the round trip
  // anyway — a solver reporting inf/NaN may never yield a frame the other
  // side cannot decode.
  api::Telemetry stats;
  stats["nan"] = std::nan("");
  stats["inf"] = std::numeric_limits<double>::infinity();
  stats["ninf"] = -std::numeric_limits<double>::infinity();
  stats["fine"] = 2.5;
  const api::Telemetry back =
      api::telemetry_from_json(Json::parse(api::to_json(stats).dump()));
  EXPECT_TRUE(std::isnan(api::stat_real(back, "nan")));
  EXPECT_EQ(api::stat_real(back, "inf"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(api::stat_real(back, "ninf"),
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(api::stat_real(back, "fine"), 2.5);
  // Legacy frames (written before tagging) carried null; decode as NaN
  // instead of throwing.
  const api::Telemetry legacy = api::telemetry_from_json(
      Json::parse("{\"old\":{\"t\":\"r\",\"v\":null}}"));
  EXPECT_TRUE(std::isnan(api::stat_real(legacy, "old")));
}

TEST(JsonTest, NonFiniteDoublesDumpAsNull) {
  Json doc = Json::object();
  doc.set("bad", std::nan(""));
  doc.set("worse", std::numeric_limits<double>::infinity());
  const std::string dumped = doc.dump();
  const Json back = Json::parse(dumped);
  EXPECT_TRUE(back.at("bad").is_null());
  EXPECT_TRUE(back.at("worse").is_null());
}

TEST(JsonApiTest, SixtyFourBitValuesRoundTripExactly) {
  // Doubles top out at 2^53; bigger integers ride as decimal strings.
  api::Telemetry stats;
  stats["huge"] = (1LL << 62) + 12345LL;
  const api::Telemetry back =
      api::telemetry_from_json(Json::parse(api::to_json(stats).dump()));
  EXPECT_EQ(api::stat_int(back, "huge"), (1LL << 62) + 12345LL);

  auto request = api::make_request(gen::by_name("uniform", 8, 2, 1));
  request.options.seed = 0xFFFFFFFFFFFFFFFFull;
  const auto parsed = api::solve_request_from_json(
      Json::parse(api::to_json(request).dump()));
  EXPECT_EQ(parsed.options.seed, 0xFFFFFFFFFFFFFFFFull);

  // And a number that cannot fit a long long fails loudly, not with UB.
  EXPECT_THROW(Json(1e300).as_int(), std::runtime_error);
}

TEST(JsonApiTest, SolveResultRoundTrips) {
  const auto instance = gen::by_name("uniform", 30, 6, 11);
  const auto result = api::solve("local-search", instance, {.seed = 4});
  ASSERT_TRUE(result.ok());

  const auto back = api::solve_result_from_json(
      Json::parse(api::to_json(result).dump(2)));
  EXPECT_EQ(back.solver, result.solver);
  EXPECT_EQ(back.status, result.status);
  EXPECT_DOUBLE_EQ(back.makespan, result.makespan);
  EXPECT_DOUBLE_EQ(back.lower_bound, result.lower_bound);
  EXPECT_DOUBLE_EQ(back.optimality_gap, result.optimality_gap);
  EXPECT_EQ(back.proven_optimal, result.proven_optimal);
  EXPECT_EQ(back.schedule_feasible, result.schedule_feasible);
  EXPECT_EQ(back.cancelled, result.cancelled);
  EXPECT_DOUBLE_EQ(back.wall_seconds, result.wall_seconds);
  EXPECT_EQ(back.schedule.assignment(), result.schedule.assignment());
  EXPECT_EQ(api::stat_int(back.stats, "moves"),
            api::stat_int(result.stats, "moves"));
  // The round-tripped schedule validates against the original instance.
  EXPECT_TRUE(model::validate(instance, back.schedule).ok());
}

TEST(JsonApiTest, SolveResultWithoutScheduleStaysLight) {
  const auto instance = gen::by_name("uniform", 30, 6, 11);
  const auto result = api::solve("greedy-bags", instance);
  const Json json = api::to_json(result, /*include_schedule=*/false);
  EXPECT_FALSE(json.contains("schedule"));
  const auto back = api::solve_result_from_json(json);
  EXPECT_EQ(back.schedule.num_jobs(), 0);
  EXPECT_DOUBLE_EQ(back.makespan, result.makespan);
}

TEST(JsonApiTest, SolveRequestRoundTrips) {
  auto request = api::make_request(gen::by_name("twopoint", 20, 5, 2),
                                   {.eps = 0.25, .seed = 9},
                                   {"eptas", "local-search"});
  request.priority = 7;
  request.options.time_limit_seconds = 1.5;
  request.options.max_nodes = 1234;
  request.deadline = api::deadline_in(60.0);

  auto back = api::solve_request_from_json(
      Json::parse(api::to_json(request).dump()));
  ASSERT_NE(back.instance, nullptr);
  EXPECT_EQ(back.instance->num_jobs(), request.instance->num_jobs());
  EXPECT_EQ(back.instance->num_machines(),
            request.instance->num_machines());
  EXPECT_DOUBLE_EQ(back.options.eps, 0.25);
  EXPECT_EQ(back.options.seed, 9u);
  EXPECT_DOUBLE_EQ(back.options.time_limit_seconds, 1.5);
  EXPECT_EQ(back.options.max_nodes, 1234);
  EXPECT_EQ(back.solvers,
            (std::vector<std::string>{"eptas", "local-search"}));
  EXPECT_EQ(back.priority, 7);
  // The relative deadline re-anchors to now(): still roughly a minute out.
  ASSERT_TRUE(back.deadline.has_value());
  const double remaining =
      std::chrono::duration<double>(*back.deadline -
                                    api::ServiceClock::now())
          .count();
  EXPECT_GT(remaining, 55.0);
  EXPECT_LT(remaining, 65.0);
  // A deserialized request is directly runnable.
  api::SchedulingService service({.num_threads = 2});
  auto handle = service.submit(std::move(back));
  const auto& result = handle.wait();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.schedule_feasible);
}

TEST(JsonApiTest, UnknownStatusThrows) {
  EXPECT_THROW(api::solve_status_from_string("bogus"), std::runtime_error);
  EXPECT_EQ(api::solve_status_from_string("cancelled"),
            api::SolveStatus::Cancelled);
}

// --- Typed codecs vs the Json-tree codecs --------------------------------------
// The server decodes frames with decode_solve_request/decode_delta_request
// and encodes results with append_result; the tree codecs are the
// reference. Decoded values must be equal; failures must throw the same
// exception type with the same message.

/// Values a perturbed document substitutes for a member: every JSON kind,
/// and numbers that fail integer and range checks.
const char* const kJunk[] = {"null",       "true",  "\"x\"",        "[]",
                             "{}",         "1.5",   "-1",           "0",
                             "4294967298", "\"7\"", "[1,\"a\"]",    "{\"size\":1}",
                             "-0",         "1e2",   "\"read-write\""};

/// Writes a Json value as text, perturbed: members in shuffled order, keys
/// sometimes spelled with \u escapes, members sometimes dropped, replaced
/// by junk or repeated (with the junk copy first or last), and rarely a
/// syntax error.
class Perturber {
 public:
  Perturber(std::uint64_t seed, double rate) : rng_(seed), rate_(rate) {}

  std::string write(const Json& value) {
    std::string out;
    emit(value, out);
    if (rng_.bernoulli(0.03)) {
      out.resize(static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(out.size()))));
    } else if (rng_.bernoulli(0.03)) {
      const auto at = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(out.size())));
      out.insert(at, 1, ",:]}x\"1"[rng_.uniform_int(0, 6)]);
    }
    return out;
  }

 private:
  const char* junk() {
    return kJunk[rng_.uniform_int(0, std::size(kJunk) - 1)];
  }

  void key(const std::string& name, std::string& out) {
    if (!rng_.bernoulli(rate_)) {
      util::append_json_string(out, name);
      return;
    }
    out += '"';
    for (const char c : name) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x",
                    static_cast<unsigned>(c));
      out += rng_.bernoulli(0.5) ? std::string(escaped) : std::string(1, c);
    }
    out += '"';
  }

  void emit(const Json& value, std::string& out) {
    if (value.is_object()) {
      std::vector<std::size_t> order(value.size());
      std::iota(order.begin(), order.end(), 0);
      rng_.shuffle(order);
      out += '{';
      bool first = true;
      const auto member = [&](const std::string& name, const auto& write) {
        if (!first) out += ',';
        first = false;
        key(name, out);
        out += ':';
        write();
      };
      for (const std::size_t i : order) {
        const auto& [name, child] = value.as_object()[i];
        if (rng_.bernoulli(rate_ / 2)) continue;  // dropped
        const bool repeat = rng_.bernoulli(rate_);
        const bool junk_last = repeat && rng_.bernoulli(0.5);
        if (repeat && !junk_last) member(name, [&] { out += junk(); });
        member(name, [&] {
          if (rng_.bernoulli(rate_ / 2)) {
            out += junk();
          } else {
            emit(child, out);
          }
        });
        if (junk_last) member(name, [&] { out += junk(); });
      }
      out += '}';
    } else if (value.is_array()) {
      out += '[';
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (i > 0) out += ',';
        if (rng_.bernoulli(rate_ / 4)) {
          out += junk();
        } else {
          emit(value[i], out);
        }
      }
      out += ']';
    } else {
      out += value.dump();
    }
  }

  util::Xoshiro256 rng_;
  double rate_;
};

/// "ok <canonical text of the value>" or "error <type>: <message>".
template <typename Decode>
std::string outcome(Decode&& decode) {
  try {
    return "ok " + decode();
  } catch (const std::exception& error) {
    return std::string("error ") + typeid(error).name() + ": " + error.what();
  }
}

std::string describe(const api::SolveRequest& request) {
  std::string text = model::instance_to_json(*request.instance).dump();
  text += api::options_to_json(request.options).dump();
  for (const auto& name : request.solvers) text += " " + name;
  text += " priority=" + std::to_string(request.priority);
  text += request.deadline.has_value() ? " deadline" : " -";
  return text;
}

std::string describe(const api::DeltaRequest& request) {
  std::string text = "session=" + std::to_string(request.session) + " ";
  text += api::to_json(request.delta).dump();
  text += request.expect_revision.has_value()
              ? " rev=" + std::to_string(*request.expect_revision)
              : " -";
  text += " priority=" + std::to_string(request.priority);
  text += request.deadline.has_value() ? " deadline" : " -";
  return text;
}

void expect_same_solve_request(const std::string& text) {
  const std::string tree = outcome([&] {
    return describe(api::solve_request_from_json(Json::parse(text)));
  });
  const std::string typed =
      outcome([&] { return describe(api::decode_solve_request(text)); });
  EXPECT_EQ(typed, tree) << text;
}

void expect_same_delta_request(const std::string& text) {
  const std::string tree = outcome([&] {
    return describe(api::delta_request_from_json(Json::parse(text)));
  });
  const std::string typed =
      outcome([&] { return describe(api::decode_delta_request(text)); });
  EXPECT_EQ(typed, tree) << text;
}

api::SolveRequest random_solve_request(util::Xoshiro256& rng) {
  const char* const families[] = {"uniform", "planted", "bagheavy"};
  api::SolveOptions options;
  options.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62));
  options.eps = rng.uniform_real(0.05, 0.9);
  options.max_nodes = rng.uniform_int(1, 1000000);
  options.cache_mode = rng.bernoulli(0.5) ? api::CacheMode::ReadWrite
                                          : api::CacheMode::Off;
  std::vector<std::string> solvers;
  for (const char* name : {"greedy-bags", "eptas", "lpt"}) {
    if (rng.bernoulli(0.4)) solvers.emplace_back(name);
  }
  auto request = api::make_request(
      gen::by_name(families[rng.uniform_int(0, 2)],
                   static_cast<int>(rng.uniform_int(1, 12)),
                   static_cast<int>(rng.uniform_int(1, 4)), options.seed),
      options, solvers);
  request.priority = static_cast<int>(rng.uniform_int(-5, 5));
  if (rng.bernoulli(0.3)) request.deadline = api::deadline_in(30.0);
  return request;
}

api::DeltaRequest random_delta_request(util::Xoshiro256& rng) {
  model::Delta delta;
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    delta.arrivals.push_back(
        {rng.uniform_real(0.01, 2.0), static_cast<int>(rng.uniform_int(0, 9))});
  }
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    delta.departures.push_back(static_cast<int>(rng.uniform_int(0, 40)));
  }
  for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
    delta.resizes.push_back({static_cast<int>(rng.uniform_int(0, 40)),
                             rng.uniform_real(0.01, 2.0)});
  }
  delta.machines_added = static_cast<int>(rng.uniform_int(0, 2));
  for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
    delta.failed_machines.push_back(static_cast<int>(rng.uniform_int(0, 5)));
  }
  auto request = api::make_delta_request(
      static_cast<std::uint64_t>(rng.uniform_int(1, 1000)), std::move(delta));
  if (rng.bernoulli(0.5)) {
    request.expect_revision =
        static_cast<std::uint64_t>(rng.uniform_int(0, 100));
  }
  request.priority = static_cast<int>(rng.uniform_int(0, 3));
  if (rng.bernoulli(0.3)) request.deadline = api::deadline_in(30.0);
  return request;
}

TEST(CodecDiffTest, PerturbedSolveRequestsDecodeAlike) {
  int ok = 0;
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::string text =
        Perturber(seed, seed % 3 == 0 ? 0.0 : 0.08)
            .write(api::to_json(random_solve_request(rng)));
    expect_same_solve_request(text);
    const bool decodes = outcome([&] {
                           return describe(api::decode_solve_request(text));
                         }).rfind("ok", 0) == 0;
    (decodes ? ok : failed) += 1;
  }
  // Both sides of the comparison are exercised.
  EXPECT_GT(ok, 500) << failed;
  EXPECT_GT(failed, 200) << ok;
}

TEST(CodecDiffTest, PerturbedDeltaRequestsDecodeAlike) {
  int ok = 0;
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    util::Xoshiro256 rng(seed * 7919);
    const std::string text =
        Perturber(seed, seed % 3 == 0 ? 0.0 : 0.1)
            .write(api::to_json(random_delta_request(rng)));
    expect_same_delta_request(text);
    const bool decodes = outcome([&] {
                           return describe(api::decode_delta_request(text));
                         }).rfind("ok", 0) == 0;
    (decodes ? ok : failed) += 1;
  }
  EXPECT_GT(ok, 500) << failed;
  EXPECT_GT(failed, 200) << ok;
}

TEST(CodecDiffTest, HandWrittenRequestsDecodeAlike) {
  const std::string jobs = R"("jobs":[{"size":1,"bag":0},{"bag":1,"size":2}])";
  const std::string instance =
      R"({"machines":2,"bags":2,)" + jobs + "}";
  for (const std::string& text : std::vector<std::string>{
           "{\"instance\":" + instance + "}",
           // Escaped keys, permuted order, integer-valued reals.
           "{\"solvers\":[\"lpt\"],\"\\u0069nstance\":" + instance +
               ",\"priority\":3.0}",
           // Duplicates: the last one counts, even when it is the bad one.
           "{\"instance\":5,\"instance\":" + instance + "}",
           "{\"instance\":" + instance + ",\"instance\":5}",
           "{\"instance\":" + instance +
               ",\"options\":{\"eps\":0.2,\"eps\":\"x\"}}",
           // Wrong-typed optional members fall back to their defaults.
           "{\"instance\":" + instance +
               ",\"options\":{\"eps\":\"x\",\"max_nodes\":true,"
               "\"multifit_iterations\":null},\"priority\":\"high\"}",
           "{\"instance\":" + instance + ",\"options\":[1,2]}",
           // ...but strict members and non-integral integers do not.
           "{\"instance\":" + instance + ",\"priority\":1.5}",
           "{\"instance\":" + instance + ",\"deadline_seconds\":\"soon\"}",
           "{\"instance\":" + instance + ",\"solvers\":\"lpt\"}",
           "{\"instance\":" + instance + ",\"solvers\":[\"lpt\",3]}",
           "{\"instance\":" + instance + ",\"options\":{\"seed\":\"x\"}}",
           "{\"instance\":" + instance + ",\"options\":{\"seed\":-1}}",
           "{\"instance\":" + instance +
               ",\"options\":{\"seed\":\"18446744073709551615\"}}",
           "{\"instance\":" + instance +
               ",\"options\":{\"cache_mode\":\"often\"}}",
           // Missing and malformed required members, in every order.
           "{}",
           "[]",
           "null",
           "{\"solvers\":[]}",
           "{\"instance\":{\"bags\":1,\"jobs\":[]}}",
           "{\"instance\":{\"machines\":2,\"jobs\":[]}}",
           "{\"instance\":{\"machines\":2,\"bags\":1}}",
           "{\"instance\":{\"jobs\":[{\"size\":\"x\",\"bag\":0}],"
           "\"machines\":\"y\",\"bags\":1}}",
           "{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"bag\":-1,"
           "\"size\":\"x\"}]}}",
           "{\"instance\":{\"machines\":4294967298,\"bags\":1,\"jobs\":[]}}",
           "{\"instance\":{\"machines\":0,\"bags\":1,\"jobs\":[]}}",
           "{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[{\"size\":1,"
           "\"bag\":1}]}}",
           "{\"instance\":{\"machines\":2,\"bags\":1,\"jobs\":[7]}}",
           "{\"priority\":\"x\",\"instance\":{\"machines\":2}}",
           // Syntax errors win over everything.
           "{\"priority\":\"x\",\"instance\":{\"machines\":2},}",
           "{\"instance\":" + instance + "} x",
           "{\"instance\":" + instance + ",\"priority\":01}",
       }) {
    expect_same_solve_request(text);
  }
}

std::vector<std::string> hand_written_delta_requests() {
  return {
      R"({"session":3})",
      R"({"session":3,"delta":{}})",
      R"({"session":3,"delta":7})",
      R"({"\u0073ession":3,"delta":{"arrivals":[{"bag":1,"size":0.5}]}})",
      R"({"session":3,"session":4,"expect_revision":0})",
      R"({"session":3,"delta":{"machines_added":"two"}})",
      R"({"session":3,"delta":{"machines_added":-1}})",
      R"({"session":3,"delta":{"machines_added":1.5}})",
      R"({"session":3,"delta":{"departures":[1,-2]}})",
      R"({"session":3,"delta":{"departures":"all"}})",
      R"({"session":3,"delta":{"arrivals":[{"size":1}]}})",
      R"({"session":3,"delta":{"arrivals":[{"bag":1}]}})",
      R"({"session":3,"delta":{"arrivals":[{"bag":4294967296,"size":1}]}})",
      R"({"session":3,"delta":{"resizes":[{"size":2,"job":"x"}]}})",
      R"({"session":3,"delta":{"failed_machines":[0,1.5]}})",
      R"({"session":3,"delta":{"arrivals":[],"arrivals":[{"size":1,"bag":0}]}})",
      R"({"session":"3"})",
      R"({"delta":{}})",
      R"({"delta":{"departures":[-1]}})",
      R"({"session":3,"expect_revision":"x"})",
      R"({"session":3,"priority":"x","deadline_seconds":2})",
      R"({"session":3,"deadline_seconds":null})",
      R"({"session":3,"delta":{"departures":[-1]},"expect_revision":"x"})",
      R"({"session":3,"delta":{"departures":[1,]}})",
      R"([])",
  };
}

TEST(CodecDiffTest, HandWrittenDeltasDecodeAlike) {
  for (const std::string& text : hand_written_delta_requests()) {
    expect_same_delta_request(text);
  }
}

void expect_same_delta_encoding(const model::Delta& delta) {
  std::string typed;
  api::append_delta(typed, delta);
  EXPECT_EQ(typed, api::to_json(delta).dump());
}

TEST(CodecDiffTest, AppendDeltaMatchesTheTreeEncoderByteForByte) {
  // The service's resend dedupe compares a delta's encoding with the
  // journaled one, so the typed writer must match the tree byte for byte.
  int encoded = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    util::Xoshiro256 rng(seed * 7919);
    const api::DeltaRequest request = random_delta_request(rng);
    expect_same_delta_encoding(request.delta);
    const std::string text =
        Perturber(seed, seed % 3 == 0 ? 0.0 : 0.1).write(api::to_json(request));
    try {
      expect_same_delta_encoding(api::decode_delta_request(text).delta);
      ++encoded;
    } catch (const std::exception&) {
      // A perturbation that does not decode has no delta to encode.
    }
  }
  EXPECT_GT(encoded, 500);
  for (const std::string& text : hand_written_delta_requests()) {
    try {
      expect_same_delta_encoding(api::decode_delta_request(text).delta);
      ++encoded;
    } catch (const std::exception&) {
    }
  }
  model::Delta edges;
  edges.arrivals = {{1e-300, 0}, {0.1 + 0.2, 2147483647}, {3.0, 0}};
  edges.departures = {0, 2147483647};
  edges.resizes = {{-2147483647 - 1, 1e300}, {7, 0.5}};
  edges.machines_added = -3;
  edges.failed_machines = {-1, 0};
  expect_same_delta_encoding(edges);
  expect_same_delta_encoding(model::Delta{});
}

TEST(CodecDiffTest, U64FieldsRejectSignsAndWhitespaceAlike) {
  // seed, session and expect_revision follow u64_from_json: digits only (or
  // a non-negative integer), never wrapped through a signed read.
  const std::string instance =
      R"({"machines":2,"bags":1,"jobs":[{"size":1,"bag":0}]})";
  for (const std::string& text : std::vector<std::string>{
           R"({"instance":)" + instance + R"(,"options":{"seed":"-1"}})",
           R"({"instance":)" + instance + R"(,"options":{"seed":" 12"}})",
       }) {
    expect_same_solve_request(text);
    EXPECT_EQ(outcome([&] {
                return describe(api::decode_solve_request(text));
              }).rfind("error", 0),
              0u)
        << text;
  }
  for (const std::string& text : std::vector<std::string>{
           R"({"session":-1})",
           R"({"session":3,"expect_revision":-1})",
       }) {
    expect_same_delta_request(text);
    EXPECT_EQ(outcome([&] {
                return describe(api::decode_delta_request(text));
              }).rfind("error", 0),
              0u)
        << text;
  }
}

TEST(CodecDiffTest, BudgetsBeyondTwoToThe53RoundTripAlike) {
  // A budget past a double's exact range, LLONG_MAX ("no budget") among
  // them, is written as a decimal string and read back unchanged by both
  // decoders.
  constexpr long long kExact = 1LL << 53;
  for (const long long budget :
       {std::numeric_limits<long long>::max(), kExact + 1, kExact,
        -(kExact + 1), std::numeric_limits<long long>::min()}) {
    api::SolveOptions options;
    options.max_nodes = budget;
    options.max_moves = budget;
    const std::string text =
        api::to_json(api::make_request(gen::by_name("uniform", 4, 2, 1),
                                       options, {"lpt"}))
            .dump();
    const api::SolveRequest typed = api::decode_solve_request(text);
    const api::SolveRequest tree =
        api::solve_request_from_json(Json::parse(text));
    EXPECT_EQ(typed.options.max_nodes, budget) << text;
    EXPECT_EQ(typed.options.max_moves, budget) << text;
    EXPECT_EQ(tree.options.max_nodes, budget) << text;
    EXPECT_EQ(tree.options.max_moves, budget) << text;
  }
  // The string form is strict: an optional '-' and digits, in range.
  const std::string instance =
      R"({"machines":2,"bags":1,"jobs":[{"size":1,"bag":0}]})";
  for (const char* value :
       {R"(" 12")", R"("12x")", R"("")", R"("+5")", R"("1e3")",
        R"("9223372036854775808")"}) {
    for (const char* key : {"max_nodes", "max_moves"}) {
      const std::string text = R"({"instance":)" + instance +
                               R"(,"options":{")" + key + "\":" + value +
                               "}}";
      expect_same_solve_request(text);
      EXPECT_EQ(outcome([&] {
                  return describe(api::decode_solve_request(text));
                }).rfind("error", 0),
                0u)
          << text;
    }
  }
}

api::SolveResult hostile_result() {
  api::SolveResult result;
  result.solver = std::string("bag\x01\"quoted\"\\\n");
  result.status = api::SolveStatus::Cancelled;
  result.makespan = -0.0;
  result.lower_bound = 4.9e-324;
  result.optimality_gap = std::numeric_limits<double>::quiet_NaN();
  result.proven_optimal = true;
  result.cancelled = true;
  result.moved_jobs = 3;
  result.migration_ratio = 0.125;
  result.wall_seconds = 1e300;
  result.error = "deadline\tcut \x1f";
  result.stats["nan"] = std::numeric_limits<double>::quiet_NaN();
  result.stats["inf"] = std::numeric_limits<double>::infinity();
  result.stats["ninf"] = -std::numeric_limits<double>::infinity();
  result.stats["big"] = (1LL << 53) + 1;
  result.stats["nbig"] = -(1LL << 62);
  result.stats["edge"] = 1LL << 53;
  result.stats["flag"] = false;
  result.stats["text\x02key"] = std::string("a\x7f\xc3\xa9\x05");
  result.stats["real"] = 0.1;
  return result;
}

TEST(CodecGoldenTest, AppendResultMatchesTheTreeEncoderByteForByte) {
  std::vector<api::SolveResult> results;
  const auto instance = gen::by_name("uniform", 30, 6, 11);
  results.push_back(api::solve("greedy-bags", instance));
  results.push_back(api::solve("local-search", instance, {.seed = 4}));
  results.push_back(hostile_result());
  api::SolveResult with_schedule = hostile_result();
  with_schedule.schedule = model::Schedule(5, 3);
  with_schedule.schedule.assign(0, 2);
  with_schedule.schedule.assign(3, 0);  // the others stay unassigned
  results.push_back(with_schedule);
  results.emplace_back();  // defaults: no moved_jobs, no error, no stats
  for (const auto& result : results) {
    for (const bool include_schedule : {true, false}) {
      std::string out = "prefix:";
      api::append_result(out, result, include_schedule);
      EXPECT_EQ(out, "prefix:" + api::to_json(result, include_schedule).dump());
    }
  }
}

/// The event frame as the tree encoder wrote it.
std::string tree_event_frame(const std::string& id,
                             const api::ProgressEvent& event,
                             bool include_schedule, bool degraded) {
  Json frame = Json::object();
  frame.set("type", "event");
  frame.set("id", id);
  frame.set("event", api::to_string(event.kind));
  if (!event.solver.empty()) frame.set("solver", event.solver);
  if (event.kind == api::ProgressKind::Phase) frame.set("phase", event.phase);
  if (event.kind == api::ProgressKind::Incumbent) {
    frame.set("incumbent_makespan", event.incumbent_makespan);
  }
  frame.set("elapsed_seconds", event.elapsed_seconds);
  if (degraded) frame.set("degraded", true);
  if (event.kind == api::ProgressKind::Finished && event.result != nullptr) {
    frame.set("result", api::to_json(*event.result, include_schedule));
  }
  return frame.dump();
}

TEST(CodecGoldenTest, EventFramesMatchTheTreeEncoderByteForByte) {
  const auto instance = gen::by_name("uniform", 12, 3, 5);
  const api::SolveResult solved = api::solve("greedy-bags", instance);
  const api::SolveResult hostile = hostile_result();
  for (const auto kind :
       {api::ProgressKind::Queued, api::ProgressKind::Started,
        api::ProgressKind::Phase, api::ProgressKind::Incumbent,
        api::ProgressKind::Finished}) {
    for (const api::SolveResult* result :
         {&solved, &hostile, static_cast<const api::SolveResult*>(nullptr)}) {
      api::ProgressEvent event;
      event.kind = kind;
      event.solver = result == &hostile ? "" : "eptas";
      event.phase = "pipeline\n";
      event.incumbent_makespan = 12.75;
      event.elapsed_seconds = 0.000123;
      event.result = result;
      for (const std::string id : {"7", "id \"quoted\"\x01"}) {
        for (const bool include_schedule : {true, false}) {
          for (const bool degraded : {true, false}) {
            EXPECT_EQ(
                net::event_frame(id, event, include_schedule, degraded),
                tree_event_frame(id, event, include_schedule, degraded));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bagsched
