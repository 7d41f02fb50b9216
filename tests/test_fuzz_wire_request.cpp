// Wire-request fuzzing: the path a cas_serve solve frame takes before any
// walker runs — util::Json::parse -> SolveRequest::from_json -> resolve()
// -> CostModel::estimate() — under seeded byte mutations of valid requests
// and numeric fields pushed to extremes. The invariant: every input ends in
// a typed rejection (a std::exception) or a finite estimate; never a crash,
// a hang or an oversized allocation. resolve()'s size and walker caps are
// what keep the last one true: the estimate's rate probe builds a Costas
// instance of the requested size.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/problems.hpp"
#include "runtime/strategy.hpp"

namespace {

/// Largest single allocation any input may cause; a request past it fails
/// with std::bad_alloc before touching memory and is counted.
constexpr std::size_t kAllocationCeiling = std::size_t{64} << 20;
std::atomic<int> g_oversized{0};

}  // namespace

void* operator new(std::size_t bytes) {
  if (bytes > kAllocationCeiling) {
    g_oversized.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cas::runtime {
namespace {

/// One valid request per problem (and per strategy family) to mutate.
const std::vector<std::string> kSeeds{
    R"({"id":"a","problem":"costas","size":12,"walkers":4,"seed":7})",
    R"({"problem":"costas","size":17,"strategy":"sequential","timeout_seconds":0.5})",
    R"({"problem":"costas","size":14,"strategy":"neighborhood","walkers":2,"max_iterations":5000})",
    R"({"problem":"costas","size":10,"problem_config":{"err":"unit","chang":false},"num_threads":2})",
    R"({"problem":"queens","size":64,"engine":"tabu","walkers":2,"probe_interval":16})",
    R"({"problem":"langford","size":11,"strategy":"portfolio","strategy_config":{"engines":["as","sa"]}})",
    R"({"problem":"partition","size":24,"strategy":"cooperative","engine_config":{"tabu_tenure":3}})",
    R"({"problem":"magic-square","size":5,"seed":"18446744073709551615"})",
    R"({"problem":"all-interval","size":14,"seed":0})",
    R"({"problem":"alpha","size":999})",
};

const std::vector<std::string> kNumericKeys{"size",           "walkers",       "num_threads",
                                            "seed",           "timeout_seconds", "max_iterations",
                                            "probe_interval"};

/// Extremes for numeric fields, as JSON text: the range ends of every
/// field type, non-integers, and uint64 values spelled as strings.
const std::vector<std::string> kExtremes{
    "0",          "-1",         "1",          "2147483647", "-2147483648", "2147483648",
    "4294967297", "9007199254740992",         "1e308",      "-1e308",      "1e-308",
    "0.5",        "1e999",      "\"18446744073709551615\"", "\"99999999999999999999999\"",
    "\"-5\"",     "\"abc\"",    "null",       "true",       "[]",          "{}"};

/// Bytes that move a JSON parser between states.
constexpr char kAlphabet[] = "{}[]:,\"\\-+.0123456789eE tfnul";

struct Tally {
  int rejected = 0;
  int priced = 0;
  int unpriced = 0;
};

/// Drive one input down the wire path, checking the invariant.
void drive(const std::string& text, CostModel& model, Tally& tally) {
  SolveRequest req;
  try {
    req = resolve(SolveRequest::from_json(util::Json::parse(text)));
  } catch (const std::exception&) {
    ++tally.rejected;
    return;
  }
  EXPECT_GE(req.walkers, 1) << text;
  EXPECT_LE(req.walkers, kMaxWalkers) << text;
  EXPECT_GE(req.size, 1) << text;
  EXPECT_LE(req.size, entry_of(req).max_size) << text;
  const CostEstimate est = model.estimate(req);
  if (!est.known) {
    ++tally.unpriced;
    return;
  }
  ++tally.priced;
  EXPECT_TRUE(std::isfinite(est.expected_walker_seconds)) << text;
  EXPECT_TRUE(std::isfinite(est.expected_wall_seconds)) << text;
  EXPECT_GE(est.expected_walker_seconds, 0.0) << text;
  EXPECT_GT(est.iterations_per_second, 0.0) << text;
}

std::string mutate(std::string s, core::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng.below(s.size());
    switch (rng.below(5)) {
      case 0:  // overwrite with any byte
        if (!s.empty()) s[at] = static_cast<char>(rng.below(256));
        break;
      case 1:  // insert a structural byte
        s.insert(at, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // delete a span
        if (!s.empty()) s.erase(at, 1 + rng.below(8));
        break;
      case 3:  // duplicate a span
        if (!s.empty()) s.insert(at, s.substr(at, 1 + rng.below(16)));
        break;
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

TEST(FuzzWireRequest, ByteMutationsRejectOrPriceFinitely) {
  core::Rng rng(0x5E7F00D);
  CostModel model;
  Tally tally;
  for (int i = 0; i < 20000; ++i)
    drive(mutate(kSeeds[rng.below(kSeeds.size())], rng), model, tally);
  EXPECT_EQ(g_oversized.load(), 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.priced, 0);
  // Only the Costas sizes up to the cap can ever be probed.
  EXPECT_LE(model.probes(), problem_registry().at("costas", "problem").max_size);
}

TEST(FuzzWireRequest, NumericExtremesRejectOrPriceFinitely) {
  core::Rng rng(0xE7715);
  CostModel model;
  Tally tally;
  for (const std::string& seed : kSeeds) {
    for (const std::string& key : kNumericKeys) {
      for (const std::string& value : kExtremes) {
        util::Json j = util::Json::parse(seed);
        j[key] = util::Json::parse(value);
        drive(j.dump(0), model, tally);
        // ...and the same extreme riding along with a second one.
        j[kNumericKeys[rng.below(kNumericKeys.size())]] =
            util::Json::parse(kExtremes[rng.below(kExtremes.size())]);
        drive(j.dump(0), model, tally);
      }
    }
  }
  EXPECT_EQ(g_oversized.load(), 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.priced, 0);
}

TEST(FuzzWireRequest, OversizedRequestsAreTypedRejectionsNamingTheLimit) {
  const auto rejection = [](const std::string& text) -> std::string {
    try {
      (void)resolve(SolveRequest::from_json(util::Json::parse(text)));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(rejection(R"({"problem":"costas","size":20000})").find("limit of 64"),
            std::string::npos);
  EXPECT_NE(rejection(R"({"problem":"costas","walkers":100000000})").find("65536"),
            std::string::npos);
  // Rounding a size up to a feasible instance cannot overflow past the cap.
  for (const char* problem : {"partition", "langford", "queens", "magic-square"})
    EXPECT_NE(rejection(std::string(R"({"problem":")") + problem + R"(","size":2147483647})")
                  .find("limit of"),
              std::string::npos)
        << problem;
  EXPECT_NE(rejection(R"({"problem":"costas","size":4294967297})").find("out of range"),
            std::string::npos);
  EXPECT_EQ(g_oversized.load(), 0);
}

}  // namespace
}  // namespace cas::runtime
