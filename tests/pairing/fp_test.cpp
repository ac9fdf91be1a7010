#include "pairing/fp.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/fp2.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class FpTest : public ::testing::Test {
 protected:
  FpTest() : fq(TypeAParams::test_small().q) {}
  FpCtx fq;
  crypto::Drbg rng{std::string_view("fp-test")};
};

TEST_F(FpTest, EncodeDecodeRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const Bignum plain = rng.below(fq.modulus());
    EXPECT_EQ(fq.dec(fq.enc(plain)), plain);
  }
}

TEST_F(FpTest, FieldAxiomsSampled) {
  for (int i = 0; i < 20; ++i) {
    const Fp a = fq.random(rng), b = fq.random(rng), c = fq.random(rng);
    EXPECT_EQ(fq.add(a, b), fq.add(b, a));
    EXPECT_EQ(fq.mul(a, b), fq.mul(b, a));
    EXPECT_EQ(fq.mul(a, fq.add(b, c)), fq.add(fq.mul(a, b), fq.mul(a, c)));
    EXPECT_EQ(fq.add(a, fq.neg(a)), fq.zero());
    EXPECT_EQ(fq.mul(a, fq.one()), a);
    EXPECT_EQ(fq.sub(a, b), fq.add(a, fq.neg(b)));
  }
}

TEST_F(FpTest, InverseIsInverse) {
  for (int i = 0; i < 20; ++i) {
    const Fp a = fq.random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(fq.mul(a, fq.inv(a)), fq.one());
  }
  EXPECT_THROW(fq.inv(fq.zero()), MathError);
}

TEST_F(FpTest, SqrMatchesMul) {
  for (int i = 0; i < 20; ++i) {
    const Fp a = fq.random(rng);
    EXPECT_EQ(fq.sqr(a), fq.mul(a, a));
  }
}

TEST_F(FpTest, SqrtOfSquaresWorks) {
  int residues = 0;
  for (int i = 0; i < 30; ++i) {
    const Fp a = fq.random(rng);
    const Fp sq = fq.sqr(a);
    ASSERT_TRUE(fq.is_qr(sq));
    const Fp root = fq.sqrt(sq);
    EXPECT_TRUE(root == a || root == fq.neg(a));
    ++residues;
  }
  EXPECT_GT(residues, 0);
}

TEST_F(FpTest, NonResidueDetected) {
  // -1 is a non-residue because q = 3 (mod 4).
  const Fp minus_one = fq.neg(fq.one());
  EXPECT_FALSE(fq.is_qr(minus_one));
  EXPECT_THROW(fq.sqrt(minus_one), MathError);
}

TEST_F(FpTest, QrMultiplicativity) {
  // Product of two non-residues is a residue.
  Fp nr1, nr2;
  bool found1 = false;
  for (int i = 0; i < 100 && !found1; ++i) {
    const Fp a = fq.random(rng);
    if (!a.is_zero() && !fq.is_qr(a)) {
      if (nr1.is_zero()) {
        nr1 = a;
      } else {
        nr2 = a;
        found1 = true;
      }
    }
  }
  ASSERT_TRUE(found1);
  EXPECT_TRUE(fq.is_qr(fq.mul(nr1, nr2)));
}

TEST_F(FpTest, SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const Fp a = fq.random(rng);
    const Bytes b = fq.to_bytes(a);
    EXPECT_EQ(b.size(), fq.byte_length());
    EXPECT_EQ(fq.from_bytes(b), a);
  }
}

TEST_F(FpTest, FromBytesRejectsBadInput) {
  EXPECT_THROW(fq.from_bytes(Bytes(fq.byte_length() - 1)), WireError);
  EXPECT_THROW(fq.from_bytes(Bytes(fq.byte_length() + 1)), WireError);
  // The modulus itself is not a reduced residue.
  EXPECT_THROW(fq.from_bytes(fq.modulus().to_bytes_be(fq.byte_length())), WireError);
}

// ---- Fixed-width representation, at both curve sizes.

TEST(FpWidth, LimbCountFollowsTheModulus) {
  static_assert(sizeof(Fp) == 64, "an element is eight 64-bit limbs, no heap");
  const FpCtx small(TypeAParams::test_small().q);
  const FpCtx paper(TypeAParams::pbc_a512().q);
  EXPECT_EQ(small.limbs(), 3);
  EXPECT_EQ(paper.limbs(), 8);
  EXPECT_EQ(paper.byte_length(), 64u);
  // Limbs above the context's count stay zero through arithmetic, so
  // plain == compares values.
  crypto::Drbg rng(std::string_view("fp-width"));
  const Fp a = small.random(rng), b = small.random(rng);
  for (const Fp& v : {small.mul(a, b), small.sqr(a), small.add(a, b), small.sub(a, b),
                      small.neg(a), small.inv(a)}) {
    for (int j = small.limbs(); j < Fp::kMaxLimbs; ++j) EXPECT_EQ(v.l[j], 0u);
  }
}

TEST(FpWidth, InvertingZeroThrowsMathError) {
  for (const TypeAParams* params : {&TypeAParams::test_small(), &TypeAParams::pbc_a512()}) {
    const FpCtx fq(params->q);
    EXPECT_THROW(fq.inv(fq.zero()), MathError);
    const Fp2Ctx fq2(fq);
    EXPECT_THROW(fq2.inv(fq2.zero()), MathError);
    // Nonzero values still invert; the zero check is not a false alarm.
    EXPECT_EQ(fq.mul(fq.one(), fq.inv(fq.one())), fq.one());
  }
}

TEST(FpWidth, RejectsUnsupportedModuliAndUnreducedInputs) {
  EXPECT_THROW(FpCtx(Bignum::from_u64(10)), MathError);  // even
  EXPECT_THROW(FpCtx(Bignum::from_u64(1)), MathError);
  // 513 bits: wider than the fixed element.
  EXPECT_THROW(FpCtx(Bignum::add(Bignum::shl(Bignum::from_u64(1), 512), Bignum::from_u64(1))),
               MathError);
  const FpCtx fq(TypeAParams::test_small().q);
  EXPECT_THROW(fq.enc(fq.modulus()), MathError);
  // A composite modulus: values sharing its factor have no inverse.
  const FpCtx composite(Bignum::from_u64(15));
  EXPECT_THROW(composite.inv(composite.enc(Bignum::from_u64(6))), MathError);
  EXPECT_EQ(composite.dec(composite.inv(composite.enc(Bignum::from_u64(7)))),
            Bignum::from_u64(13));  // 7 * 13 = 91 = 1 (mod 15)
}

TEST(FpWidth, PaperFieldAxiomsAndCodec) {
  const FpCtx fq(TypeAParams::pbc_a512().q);
  crypto::Drbg rng(std::string_view("fp-512"));
  for (int i = 0; i < 20; ++i) {
    const Fp a = fq.random(rng), b = fq.random(rng), c = fq.random(rng);
    EXPECT_EQ(fq.mul(a, fq.add(b, c)), fq.add(fq.mul(a, b), fq.mul(a, c)));
    EXPECT_EQ(fq.sqr(a), fq.mul(a, a));
    EXPECT_EQ(fq.mul(a, fq.inv(a)), fq.one());
    EXPECT_EQ(fq.from_bytes(fq.to_bytes(a)), a);
    EXPECT_EQ(fq.enc(fq.dec(a)), a);
    EXPECT_EQ(fq.is_odd(a), fq.dec(a).is_odd());
  }
}

}  // namespace
}  // namespace maabe::pairing
