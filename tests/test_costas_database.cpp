#include "costas/database.hpp"

#include <gtest/gtest.h>

#include "costas/construction.hpp"
#include "costas/enumerate.hpp"
#include "costas/symmetry.hpp"

namespace cas::costas {
namespace {

TEST(KnownCounts, RangeHandling) {
  EXPECT_FALSE(known_costas_count(0).has_value());
  EXPECT_FALSE(known_costas_count(-5).has_value());
  EXPECT_FALSE(known_costas_count(30).has_value());
  EXPECT_TRUE(known_costas_count(1).has_value());
  EXPECT_TRUE(known_costas_count(29).has_value());
}

TEST(KnownCounts, PaperQuotedValues) {
  // Sec. II: "among the 29! permutations, there are only 164 Costas arrays,
  // and 23 unique Costas arrays up to rotation and reflection".
  EXPECT_EQ(known_costas_count(29), 164);
  EXPECT_EQ(known_class_count(29), 23);
}

TEST(KnownCounts, MatchesDesignDocKnownAnswers) {
  // The n <= 13 counts used throughout the test suite (the known
  // enumeration results the database reproduces).
  const int64_t expected[] = {1,    2,    4,    12,   40,   116,  200,
                              444,  760,  2160, 4368, 7852, 12828};
  for (int n = 1; n <= 13; ++n)
    EXPECT_EQ(known_costas_count(n), expected[n - 1]) << "n=" << n;
}

class DatabaseCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(DatabaseCrossCheck, EnumeratorAgreesWithTotals) {
  const int n = GetParam();
  const auto arrays = all_costas(n);
  EXPECT_EQ(static_cast<int64_t>(arrays.size()), known_costas_count(n));
}

TEST_P(DatabaseCrossCheck, SymmetryClassesAgree) {
  const int n = GetParam();
  const auto arrays = all_costas(n);
  EXPECT_EQ(static_cast<int64_t>(count_symmetry_classes(arrays)), known_class_count(n));
}

INSTANTIATE_TEST_SUITE_P(Orders, DatabaseCrossCheck, ::testing::Range(1, 10),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST(KnownDensity, CollapsesWithN) {
  // The paper's Sec. II motivation: solution density collapses with n —
  // this is what makes multi-walk diversification matter.
  ASSERT_TRUE(known_density(5).has_value());
  EXPECT_DOUBLE_EQ(*known_density(5), 40.0 / 120.0);
  double prev = *known_density(10);
  for (int n = 11; n <= 29; ++n) {
    const double d = *known_density(n);
    EXPECT_LT(d, prev) << "density must shrink monotonically from n=10 on, n=" << n;
    prev = d;
  }
  EXPECT_LT(*known_density(29), 1e-25);  // 164 / 29! ~ 1.9e-29
}

TEST(PeakCountOrder, IsSixteen) {
  // Counts rise to n = 16 (21104 arrays) and fall after — the famous
  // "why do Costas arrays become rare?" phenomenon.
  EXPECT_EQ(peak_count_order(), 16);
  EXPECT_EQ(known_costas_count(16), 21104);
  EXPECT_GT(*known_costas_count(16), *known_costas_count(15));
  EXPECT_GT(*known_costas_count(16), *known_costas_count(17));
}

TEST(ExistenceStatus, EnumeratedRange) {
  for (int n = 1; n <= 29; ++n)
    EXPECT_EQ(existence_status(n), ExistenceStatus::kEnumerated) << "n=" << n;
}

TEST(ExistenceStatus, ConstructibleBeyondEnumeration) {
  // 30 = 31 - 1 (Welch), 36 = 37 - 1 (Welch), 45 = 47 - 2 (Welch corner).
  EXPECT_EQ(existence_status(30), ExistenceStatus::kConstructible);
  EXPECT_EQ(existence_status(36), ExistenceStatus::kConstructible);
  EXPECT_EQ(existence_status(45), ExistenceStatus::kConstructible);
}

TEST(ExistenceStatus, OpenCases) {
  // The paper: "it remains unknown if there exist any Costas arrays of
  // size 32 or 33".
  EXPECT_EQ(existence_status(32), ExistenceStatus::kUnknown);
  EXPECT_EQ(existence_status(33), ExistenceStatus::kUnknown);
  EXPECT_THROW(existence_status(0), std::invalid_argument);
}

TEST(UnknownOrders, OpenCasesAndConstructionGaps) {
  // 32 and 33 are the genuinely open orders. 30 is Welch-constructible
  // (p = 31); 31 is known in the literature only from search results, which
  // is outside this library's constructive reach, so it reports kUnknown
  // (documented semantics: "open or not constructible here").
  const auto open = unknown_orders_up_to(33);
  ASSERT_EQ(open.size(), 3u);
  EXPECT_EQ(open[0], 31);
  EXPECT_EQ(open[1], 32);
  EXPECT_EQ(open[2], 33);
}

TEST(KnownCounts, LegacyArrayAgreesWithDatabase) {
  // enumerate.hpp carries a constexpr copy of the count table for
  // header-only consumers; it must match the database entry for entry.
  for (int n = 1; n <= kMaxEnumeratedOrder; ++n)
    EXPECT_EQ(static_cast<int64_t>(kKnownCostasCounts[n]), *known_costas_count(n))
        << "n=" << n;
}

TEST(DescribeOrder, MentionsKeyFacts) {
  EXPECT_NE(describe_order(29).find("164"), std::string::npos);
  EXPECT_NE(describe_order(29).find("23"), std::string::npos);
  EXPECT_NE(describe_order(32).find("open problem"), std::string::npos);
  EXPECT_NE(describe_order(30).find("exist"), std::string::npos);
}

}  // namespace
}  // namespace cas::costas
