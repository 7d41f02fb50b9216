// Field-axiom property tests for GF(p^k), parameterized over every field
// order used by the Costas constructions' test range.
#include "algebra/gf.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algebra/primes.hpp"

namespace cas::algebra {
namespace {

class GfAxioms : public testing::TestWithParam<uint64_t> {
 protected:
  GfAxioms() : f(GetParam()) {}
  Gf f;
};

TEST_P(GfAxioms, AdditiveGroup) {
  const auto q = f.order();
  for (uint32_t a = 0; a < q; ++a) {
    EXPECT_EQ(f.add(a, f.zero()), a);
    EXPECT_EQ(f.add(a, f.neg(a)), f.zero());
    for (uint32_t b = 0; b < q; ++b) {
      EXPECT_EQ(f.add(a, b), f.add(b, a));
    }
  }
}

TEST_P(GfAxioms, AdditionAssociativitySampled) {
  const auto q = f.order();
  // Full triple product is cubic; sample a lattice.
  for (uint32_t a = 0; a < q; a += 3) {
    for (uint32_t b = 1; b < q; b += 2) {
      for (uint32_t c = 0; c < q; c += 5) {
        EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
      }
    }
  }
}

TEST_P(GfAxioms, MultiplicativeGroup) {
  const auto q = f.order();
  for (uint32_t a = 1; a < q; ++a) {
    EXPECT_EQ(f.mul(a, f.one()), a);
    EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
    for (uint32_t b = 1; b < q; ++b) {
      EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    }
  }
}

TEST_P(GfAxioms, MultiplyByZero) {
  for (uint32_t a = 0; a < f.order(); ++a) {
    EXPECT_EQ(f.mul(a, 0), 0u);
    EXPECT_EQ(f.mul(0, a), 0u);
  }
}

TEST_P(GfAxioms, DistributivitySampled) {
  const auto q = f.order();
  for (uint32_t a = 1; a < q; a += 2) {
    for (uint32_t b = 0; b < q; b += 3) {
      for (uint32_t c = 1; c < q; c += 4) {
        EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
      }
    }
  }
}

TEST_P(GfAxioms, GeneratorSpansMultiplicativeGroup) {
  std::set<uint32_t> seen;
  uint32_t acc = f.one();
  for (uint64_t i = 0; i + 1 < f.order(); ++i) {
    seen.insert(acc);
    acc = f.mul(acc, f.generator());
  }
  EXPECT_EQ(seen.size(), f.order() - 1);
  EXPECT_EQ(acc, f.one());  // g^(q-1) == 1
}

TEST_P(GfAxioms, ExpLogRoundTrip) {
  for (uint32_t a = 1; a < f.order(); ++a) {
    EXPECT_EQ(f.exp(f.log(a)), a);
  }
}

TEST_P(GfAxioms, PowMatchesRepeatedMul) {
  const uint32_t a = f.generator();
  uint32_t acc = f.one();
  for (uint64_t e = 0; e < std::min<uint64_t>(f.order() + 2, 50); ++e) {
    EXPECT_EQ(f.pow(a, e), acc) << "e=" << e;
    acc = f.mul(acc, a);
  }
}

TEST_P(GfAxioms, FrobeniusIsAdditive) {
  // (a+b)^p == a^p + b^p in characteristic p.
  const uint32_t p = f.characteristic();
  for (uint32_t a = 0; a < f.order(); a += 2) {
    for (uint32_t b = 1; b < f.order(); b += 3) {
      EXPECT_EQ(f.pow(f.add(a, b), p), f.add(f.pow(a, p), f.pow(b, p)));
    }
  }
}

TEST_P(GfAxioms, ElementOrdersDivideGroupOrder) {
  for (uint32_t a = 1; a < f.order(); ++a) {
    EXPECT_EQ((f.order() - 1) % f.element_order(a), 0u);
  }
}

TEST_P(GfAxioms, PrimitiveElementCountIsPhi) {
  auto phi = [](uint64_t n) {
    uint64_t r = n;
    for (const auto& [pp, e] : factorize(n)) r = r / pp * (pp - 1);
    return r;
  };
  EXPECT_EQ(f.primitive_elements().size(), phi(f.order() - 1));
}

INSTANTIATE_TEST_SUITE_P(FieldOrders, GfAxioms,
                         testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49),
                         [](const testing::TestParamInfo<uint64_t>& info) {
                           return "q" + std::to_string(info.param);
                         });

TEST(Gf, RejectsNonPrimePower) {
  EXPECT_THROW(Gf(6), std::invalid_argument);
  EXPECT_THROW(Gf(12), std::invalid_argument);
  EXPECT_THROW(Gf(1), std::invalid_argument);
}

TEST(Gf, CharacteristicAndDegree) {
  const Gf f(27);
  EXPECT_EQ(f.characteristic(), 3u);
  EXPECT_EQ(f.degree(), 3);
  EXPECT_EQ(f.order(), 27u);
}

TEST(Gf, InvZeroThrows) {
  const Gf f(8);
  EXPECT_THROW((void)f.inv(0), std::domain_error);
  EXPECT_THROW((void)f.log(0), std::domain_error);
}

TEST(Gf, PrimeFieldMatchesModularArithmetic) {
  const Gf f(13);
  for (uint32_t a = 0; a < 13; ++a) {
    for (uint32_t b = 0; b < 13; ++b) {
      EXPECT_EQ(f.add(a, b), (a + b) % 13);
      EXPECT_EQ(f.mul(a, b), (a * b) % 13);
    }
  }
}

TEST(Gf, ModulusIsIrreducibleMonic) {
  const Gf f(16);
  EXPECT_EQ(poly_deg(f.modulus()), 4);
  EXPECT_TRUE(poly_is_irreducible(f.modulus(), 2));
}

}  // namespace
}  // namespace cas::algebra
