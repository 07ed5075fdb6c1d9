#include "harness.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/stopwatch.h"

namespace bagsched::bench {

Harness::Harness(std::string name, int argc, char** argv)
    : name_(std::move(name)), json_path_("BENCH_" + name_ + ".json") {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json") {
      json_requested_ = true;
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      json_requested_ = true;
      json_path_ = arg.substr(std::strlen("--bench-json="));
    } else if (arg.rfind("--bench-reps=", 0) == 0) {
      // Strict parse: atoi would turn "--bench-reps=abc" into 0 and the
      // bench would silently skip real measurement; reject instead.
      const std::string value = arg.substr(std::strlen("--bench-reps="));
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed < 1 ||
          parsed > 1'000'000) {
        std::cerr << "harness: invalid --bench-reps value \"" << value
                  << "\" (expected an integer in [1, 1000000])\n";
        std::exit(2);
      }
      reps_override_ = static_cast<int>(parsed);
    } else {
      // A typo (--bench-rep=3) must not run with the default reps.
      std::cerr << "harness: unknown argument \"" << arg
                << "\" (expected --bench-json[=path] or --bench-reps=N)\n";
      std::exit(2);
    }
  }
}

int Harness::reps(int default_reps) const {
  return reps_override_ > 0 ? reps_override_ : std::max(1, default_reps);
}

CaseResult& Harness::run_case(const std::string& label, int reps,
                              const std::function<void()>& fn) {
  reps = std::max(1, reps);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    util::Stopwatch timer;
    fn();
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  CaseResult result;
  result.label = label;
  result.reps = reps;
  result.min_seconds = seconds.front();
  result.max_seconds = seconds.back();
  const std::size_t half = seconds.size() / 2;
  result.median_seconds =
      seconds.size() % 2 == 1
          ? seconds[half]
          : 0.5 * (seconds[half - 1] + seconds[half]);
  cases_.push_back(std::move(result));
  return cases_.back();
}

util::Json Harness::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("bench", name_);
  util::Json cases = util::Json::array();
  for (const CaseResult& c : cases_) {
    util::Json entry = util::Json::object();
    entry.set("label", c.label);
    entry.set("reps", static_cast<long long>(c.reps));
    entry.set("median_seconds", c.median_seconds);
    entry.set("min_seconds", c.min_seconds);
    entry.set("max_seconds", c.max_seconds);
    entry.set("metrics", c.metrics);
    cases.push_back(std::move(entry));
  }
  doc.set("cases", std::move(cases));
  return doc;
}

void Harness::print_summary(std::ostream& out) const {
  std::size_t width = 5;
  for (const CaseResult& c : cases_) {
    width = std::max(width, c.label.size());
  }
  out << "\n=== bench " << name_ << " (median of k) ===\n";
  for (const CaseResult& c : cases_) {
    out << std::left << std::setw(static_cast<int>(width) + 2) << c.label
        << " reps=" << c.reps << "  median=" << std::fixed
        << std::setprecision(4) << c.median_seconds << "s"
        << "  min=" << c.min_seconds << "s  max=" << c.max_seconds << "s\n";
  }
  out.unsetf(std::ios::fixed);
}

bool Harness::finish(std::ostream& out) {
  print_summary(out);
  if (!json_requested_) return true;
  const std::string text = to_json().dump(2);
  {
    std::ofstream file(json_path_);
    if (!file) {
      std::cerr << "harness: cannot open " << json_path_
                << " for writing\n";
      return false;
    }
    file << text << "\n";
  }
  // Self-validation: the emitted document must round-trip through the
  // strict parser, so CI notices perf-tooling rot immediately.
  try {
    const util::Json back = util::Json::parse(text);
    if (!back.is_object() || !back.contains("cases")) {
      std::cerr << "harness: emitted JSON lost its shape\n";
      return false;
    }
  } catch (const std::exception& error) {
    std::cerr << "harness: emitted JSON does not parse: " << error.what()
              << "\n";
    return false;
  }
  out << "wrote " << json_path_ << " (" << cases_.size() << " cases)\n";
  return true;
}

}  // namespace bagsched::bench
