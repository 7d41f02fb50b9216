// JSON writer and ASCII histogram utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/histogram.hpp"
#include "util/json.hpp"

namespace cas::util {
namespace {

// ---------- Json ----------

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(int64_t{1} << 40).dump(), "1099511627776");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(Json("q\"\n").dump(), "\"q\\\"\\n\"");
}

TEST(Json, ArrayBuilding) {
  Json a = Json::array({1, 2, 3});
  EXPECT_TRUE(a.is_array());
  EXPECT_EQ(a.size(), 3u);
  a.push_back("x");
  EXPECT_EQ(a.dump(), "[1,2,3,\"x\"]");
  // push_back on a fresh null value promotes it to an array.
  Json b;
  b.push_back(7);
  EXPECT_EQ(b.dump(), "[7]");
}

TEST(Json, ObjectBuilding) {
  Json o;
  o["b"] = 2;
  o["a"] = 1;
  o["nested"]["deep"] = true;
  // std::map ordering: keys sorted.
  EXPECT_EQ(o.dump(), "{\"a\":1,\"b\":2,\"nested\":{\"deep\":true}}");
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("z"));
  EXPECT_EQ(o.at("b").as_number(), 2);
  EXPECT_THROW((void)o.at("z"), std::out_of_range);
}

TEST(Json, TypeErrors) {
  Json n(5);
  EXPECT_THROW(n.push_back(1), std::logic_error);
  EXPECT_THROW(n["k"], std::logic_error);
  EXPECT_THROW((void)n.size(), std::logic_error);
  EXPECT_THROW((void)Json("s").at("k"), std::logic_error);
}

TEST(Json, PrettyPrint) {
  Json o;
  o["xs"] = Json::array({1, 2});
  const std::string pretty = o.dump(2);
  EXPECT_EQ(pretty,
            "{\n"
            "  \"xs\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

TEST(Json, NumberRoundTripPrecision) {
  const double x = 0.1 + 0.2;  // classic 0.30000000000000004
  double back = 0;
  sscanf(Json(x).dump().c_str(), "%lf", &back);
  EXPECT_EQ(back, x);
}

// ---------- Histogram ----------

// ---------- Json::parse ----------

TEST(Json, CanonicalizedDropsNullObjectMembersRecursively) {
  Json j = Json::object();
  j["keep"] = 1;
  j["drop"] = Json(nullptr);
  j["nested"] = Json::object();
  j["nested"]["inner_drop"] = Json(nullptr);
  j["nested"]["inner_keep"] = "x";
  j["arr"] = Json::array({Json(nullptr), Json(2)});  // array elements keep position
  const Json c = j.canonicalized();
  EXPECT_EQ(c.dump(), R"({"arr":[null,2],"keep":1,"nested":{"inner_keep":"x"}})");
}

TEST(Json, CanonicalFormIsInsertionOrderIndependent) {
  // Objects are sorted maps: the emission order never follows insertion
  // order, so semantically equal documents dump byte-identically — the
  // property the runtime's request keys are built on.
  Json a = Json::object();
  a["zeta"] = 1;
  a["alpha"] = Json::array({true});
  a["mid"] = 2.0;  // integral double prints without a decimal point
  Json b = Json::object();
  b["mid"] = 2;
  b["alpha"] = Json::array({true});
  b["zeta"] = 1.0;
  EXPECT_EQ(a.canonicalized().dump(), b.canonicalized().dump());
  EXPECT_EQ(a.dump(), R"({"alpha":[true],"mid":2,"zeta":1})");
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  const Json arr = Json::parse("[1, 2, 3]");
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 3u);
  const Json obj = Json::parse(R"({"a": 1, "b": [true, null]})");
  EXPECT_EQ(obj.at("a").as_int(), 1);
  EXPECT_EQ(obj.at("b").size(), 2u);
}

TEST(JsonParse, RoundTripsDumpOutput) {
  Json doc = Json::object();
  doc["name"] = "bench";
  doc["values"] = Json::array({1, 2.5, -3});
  doc["nested"] = Json::object();
  doc["nested"]["flag"] = true;
  doc["empty_arr"] = Json::array();
  doc["big"] = uint64_t{1} << 40;
  for (int indent : {0, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.dump(), doc.dump()) << "indent=" << indent;
  }
}

TEST(JsonParse, SpecExtensionsCommentsAndTrailingCommas) {
  const Json j = Json::parse(R"({
    // scenario specs are handwritten: comments and trailing commas allowed
    "requests": [
      {"problem": "costas"},
    ],
  })");
  EXPECT_EQ(j.at("requests").size(), 1u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");        // é
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonParse, ErrorsCarryPosition) {
  for (const char* bad : {"", "{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "1.2.3",
                          "[1] trailing", "{\"a\":}"}) {
    try {
      Json::parse(bad);
      FAIL() << "expected parse failure for: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("JSON parse error at "), std::string::npos);
    }
  }
}

TEST(JsonParse, FindAndAsInt) {
  const Json j = Json::parse(R"({"n": 42, "x": 1.5})");
  ASSERT_NE(j.find("n"), nullptr);
  EXPECT_EQ(j.find("n")->as_int(), 42);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_EQ(Json("s").find("k"), nullptr);  // non-objects have no members
  EXPECT_THROW((void)j.at("x").as_int(), std::logic_error);  // 1.5 is not integral
}

TEST(Histogram, RejectsBadInput) {
  EXPECT_THROW(bin_samples({}, {}), std::invalid_argument);
  HistogramOptions zero_bins;
  zero_bins.bins = 0;
  EXPECT_THROW(bin_samples({1.0}, zero_bins), std::invalid_argument);
  HistogramOptions logx;
  logx.log_x = true;
  EXPECT_THROW(bin_samples({0.0, 1.0}, logx), std::invalid_argument);
}

TEST(Histogram, CountsPartitionTheSample) {
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(static_cast<double>(i % 37));
  HistogramOptions opts;
  opts.bins = 10;
  const auto bins = bin_samples(xs, opts);
  ASSERT_EQ(bins.size(), 10u);
  size_t total = 0;
  for (const auto& b : bins) total += b.count;
  EXPECT_EQ(total, xs.size());
  // Bin edges tile [min, max] without gaps.
  for (size_t i = 1; i < bins.size(); ++i) EXPECT_DOUBLE_EQ(bins[i - 1].hi, bins[i].lo);
  EXPECT_DOUBLE_EQ(bins.front().lo, 0.0);
  EXPECT_DOUBLE_EQ(bins.back().hi, 36.0);
}

TEST(Histogram, MaxSampleLandsInLastBin) {
  const auto bins = bin_samples({0, 1, 2, 3, 10}, {});
  EXPECT_EQ(bins.back().count, 1u);
}

TEST(Histogram, DegenerateSingleValue) {
  const auto bins = bin_samples({5, 5, 5}, {});
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].count, 3u);
  EXPECT_DOUBLE_EQ(bins[0].lo, 5);
  EXPECT_DOUBLE_EQ(bins[0].hi, 5);
}

TEST(Histogram, LogBinsGrowGeometrically) {
  HistogramOptions opts;
  opts.bins = 3;
  opts.log_x = true;
  const auto bins = bin_samples({1.0, 1000.0}, opts);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_NEAR(bins[0].hi, 10.0, 1e-9);
  EXPECT_NEAR(bins[1].hi, 100.0, 1e-9);
  EXPECT_NEAR(bins[2].hi, 1000.0, 1e-9);
}

TEST(Histogram, RenderShapes) {
  std::vector<double> xs{1, 1, 1, 1, 2, 2, 3};
  HistogramOptions opts;
  opts.bins = 2;
  opts.max_bar = 8;
  const std::string out = histogram(xs, opts);
  // Two lines: bin [1,2) holds the four 1s, bin [2,3] holds {2,2,3}.
  const auto nl = out.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const std::string line1 = out.substr(0, nl);
  const std::string line2 = out.substr(nl + 1);
  EXPECT_GT(std::count(line1.begin(), line1.end(), '#'),
            std::count(line2.begin(), line2.end(), '#'));
  EXPECT_NE(line1.find("(4)"), std::string::npos);
  EXPECT_NE(line2.find("(3)"), std::string::npos);
  EXPECT_NE(line1.find('['), std::string::npos);
  // Last bin is closed: "]".
  EXPECT_NE(line2.find(']'), std::string::npos);
}

TEST(Histogram, PeakBarUsesFullWidth) {
  std::vector<double> xs{1, 1, 1, 1, 1, 9};
  HistogramOptions opts;
  opts.bins = 2;
  opts.max_bar = 10;
  const std::string out = histogram(xs, opts);
  const auto nl = out.find('\n');
  const std::string line1 = out.substr(0, nl);
  EXPECT_EQ(std::count(line1.begin(), line1.end(), '#'), 10);
}

// ---------- LogHistogram (streaming percentile accumulator) ----------

TEST(LogHistogram, EmptyAndSingleValue) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.add(0.125);
  EXPECT_EQ(h.count(), 1u);
  // A single sample IS every percentile, exactly (min/max clamping).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.125);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
}

TEST(LogHistogram, PercentilesTrackExactQuantilesWithinBucketRatio) {
  // 10,000 samples spread over four decades: each streaming percentile
  // must land within one bucket ratio (10^(1/12) ~ 1.212) of the exact
  // order statistic.
  LogHistogram h(1e-6, 1e4, 12);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 4.0 * i / 9999.0);  // 1e-4 .. 1
    xs.push_back(v);
    h.add(v);
  }
  std::sort(xs.begin(), xs.end());
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  for (double p : {0.10, 0.50, 0.95, 0.99}) {
    const double exact = xs[static_cast<size_t>(p * (xs.size() - 1))];
    const double est = h.percentile(p);
    EXPECT_LE(est / exact, ratio * 1.01) << "p" << p;
    EXPECT_GE(est / exact, 1.0 / (ratio * 1.01)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), xs.back());  // p100 exact
  EXPECT_EQ(h.count(), 10000u);
}

TEST(LogHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  LogHistogram h(1e-3, 1e3, 6);
  h.add(1e-9);  // below lo: first bucket
  h.add(1e9);   // above hi: last bucket
  EXPECT_EQ(h.count(), 2u);
  // Exact extremes survive via the min/max clamp even though the buckets
  // saturate.
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e9);
}

TEST(LogHistogram, BinsSkipEmptyBucketsAndPartitionCount) {
  LogHistogram h(1e-2, 1e2, 4);
  for (int i = 0; i < 7; ++i) h.add(0.5);
  for (int i = 0; i < 3; ++i) h.add(50.0);
  uint64_t total = 0;
  for (const auto& b : h.bins()) {
    EXPECT_GT(b.count, 0u);
    total += b.count;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(h.bins().size(), 2u);
}

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 12), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 12), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1e-6, 1e4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace cas::util
