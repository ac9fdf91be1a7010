#include "pairing/fp2.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class Fp2Test : public ::testing::Test {
 protected:
  Fp2Test() : fq(TypeAParams::test_small().q), fq2(fq) {}
  FpCtx fq;
  Fp2Ctx fq2;
  crypto::Drbg rng{std::string_view("fp2-test")};
};

TEST_F(Fp2Test, RingAxiomsSampled) {
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = fq2.random(rng), b = fq2.random(rng), c = fq2.random(rng);
    EXPECT_EQ(fq2.add(a, b), fq2.add(b, a));
    EXPECT_EQ(fq2.mul(a, b), fq2.mul(b, a));
    EXPECT_EQ(fq2.mul(fq2.mul(a, b), c), fq2.mul(a, fq2.mul(b, c)));
    EXPECT_EQ(fq2.mul(a, fq2.add(b, c)), fq2.add(fq2.mul(a, b), fq2.mul(a, c)));
    EXPECT_EQ(fq2.add(a, fq2.neg(a)), fq2.zero());
    EXPECT_EQ(fq2.mul(a, fq2.one()), a);
  }
}

TEST_F(Fp2Test, ImaginaryUnitSquaresToMinusOne) {
  const Fp2 i{fq.zero(), fq.one()};
  const Fp2 minus_one{fq.neg(fq.one()), fq.zero()};
  EXPECT_EQ(fq2.mul(i, i), minus_one);
  EXPECT_EQ(fq2.sqr(i), minus_one);
}

TEST_F(Fp2Test, SqrMatchesMul) {
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = fq2.random(rng);
    EXPECT_EQ(fq2.sqr(a), fq2.mul(a, a));
  }
}

TEST_F(Fp2Test, InverseIsInverse) {
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = fq2.random(rng);
    if (fq2.is_zero(a)) continue;
    EXPECT_EQ(fq2.mul(a, fq2.inv(a)), fq2.one());
  }
  EXPECT_THROW(fq2.inv(fq2.zero()), MathError);
}

TEST_F(Fp2Test, CyclotomicSqrMatchesGenericOnNormOne) {
  EXPECT_TRUE(fq2.is_norm_one(fq2.one()));
  EXPECT_FALSE(fq2.is_norm_one(fq2.zero()));
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = fq2.random(rng);
    if (fq2.is_zero(a)) continue;
    // a^(q-1) = conj(a)/a lands in the norm-1 cyclotomic subgroup —
    // the same easy-part map the final exponentiation applies.
    const Fp2 u = fq2.mul(fq2.conj(a), fq2.inv(a));
    ASSERT_TRUE(fq2.is_norm_one(u));
    EXPECT_EQ(fq2.sqr_cyclotomic(u), fq2.sqr(u));
    EXPECT_EQ(fq2.sqr_cyclotomic(u), fq2.mul(u, u));
  }
}

TEST_F(Fp2Test, CyclotomicPowMatchesGenericPow) {
  const Bignum q = TypeAParams::test_small().q;
  for (int i = 0; i < 10; ++i) {
    const Fp2 a = fq2.random(rng);
    if (fq2.is_zero(a)) continue;
    const Fp2 u = fq2.mul(fq2.conj(a), fq2.inv(a));
    const Bignum k = rng.below(q);
    EXPECT_EQ(fq2.pow_cyclotomic(u, k), fq2.pow(u, k));
  }
  const Fp2 a = fq2.random(rng);
  const Fp2 u = fq2.mul(fq2.conj(a), fq2.inv(a));
  EXPECT_EQ(fq2.pow_cyclotomic(u, Bignum{}), fq2.one());
  EXPECT_EQ(fq2.pow_cyclotomic(u, Bignum::from_u64(1)), u);
}

TEST_F(Fp2Test, ConjugationProperties) {
  for (int i = 0; i < 10; ++i) {
    const Fp2 a = fq2.random(rng), b = fq2.random(rng);
    EXPECT_EQ(fq2.conj(fq2.conj(a)), a);
    EXPECT_EQ(fq2.conj(fq2.mul(a, b)), fq2.mul(fq2.conj(a), fq2.conj(b)));
    // a * conj(a) has zero imaginary part (it is the norm).
    EXPECT_TRUE(fq2.mul(a, fq2.conj(a)).b.is_zero());
  }
}

TEST_F(Fp2Test, PowMatchesRepeatedMul) {
  const Fp2 a = fq2.random(rng);
  Fp2 acc = fq2.one();
  for (uint64_t e = 0; e < 17; ++e) {
    EXPECT_EQ(fq2.pow(a, Bignum::from_u64(e)), acc) << e;
    acc = fq2.mul(acc, a);
  }
}

TEST_F(Fp2Test, PowAddsExponents) {
  const Fp2 a = fq2.random(rng);
  const Bignum e1 = rng.below(Bignum::from_hex("ffffffffffffffff"));
  const Bignum e2 = rng.below(Bignum::from_hex("ffffffffffffffff"));
  EXPECT_EQ(fq2.mul(fq2.pow(a, e1), fq2.pow(a, e2)), fq2.pow(a, Bignum::add(e1, e2)));
}

TEST_F(Fp2Test, MultiplicativeGroupOrder) {
  // a^(q^2 - 1) == 1 for nonzero a.
  const Fp2 a = fq2.random(rng);
  const Bignum q = fq.modulus();
  const Bignum order = Bignum::sub(Bignum::mul(q, q), Bignum::from_u64(1));
  EXPECT_EQ(fq2.pow(a, order), fq2.one());
}

TEST_F(Fp2Test, SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const Fp2 a = fq2.random(rng);
    const Bytes b = fq2.to_bytes(a);
    EXPECT_EQ(b.size(), fq2.byte_length());
    EXPECT_EQ(fq2.from_bytes(b), a);
  }
  EXPECT_THROW(fq2.from_bytes(Bytes(fq2.byte_length() + 1)), WireError);
}

// The same identities on the paper's 8-limb field.
TEST(Fp2Paper, RingIdentitiesAndCyclotomicSquaring) {
  const FpCtx fq(TypeAParams::pbc_a512().q);
  const Fp2Ctx fq2(fq);
  crypto::Drbg rng(std::string_view("fp2-512"));
  for (int i = 0; i < 10; ++i) {
    const Fp2 a = fq2.random(rng), b = fq2.random(rng);
    EXPECT_EQ(fq2.mul(a, b), fq2.mul(b, a));
    EXPECT_EQ(fq2.sqr(a), fq2.mul(a, a));
    EXPECT_EQ(fq2.mul(a, fq2.inv(a)), fq2.one());
    EXPECT_EQ(fq2.from_bytes(fq2.to_bytes(a)), a);
    const Fp2 u = fq2.mul(fq2.conj(a), fq2.inv(a));
    ASSERT_TRUE(fq2.is_norm_one(u));
    EXPECT_EQ(fq2.sqr_cyclotomic(u), fq2.sqr(u));
    const Bignum k = rng.below(fq.modulus());
    EXPECT_EQ(fq2.pow_cyclotomic(u, k), fq2.pow(u, k));
  }
}

}  // namespace
}  // namespace maabe::pairing
