#include "pairing/curve.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/group.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class CurveTest : public ::testing::Test {
 protected:
  CurveTest() : grp(Group::test_small()) {}
  std::shared_ptr<const Group> grp;
  crypto::Drbg rng{std::string_view("curve-test")};
};

TEST_F(CurveTest, GeneratorHasOrderR) {
  const G1& g = grp->g();
  EXPECT_FALSE(g.is_identity());
  EXPECT_TRUE(g.mul(grp->zr_from_bignum(grp->order())).is_identity());
  // No smaller order: r is prime, so any element is either identity or
  // has order exactly r; g^1 != identity was checked above.
  EXPECT_FALSE(g.mul(grp->zr_one()).is_identity());
}

TEST_F(CurveTest, GroupLawBasics) {
  const G1 p = grp->g1_random(rng);
  const G1 q = grp->g1_random(rng);
  const G1 o = grp->g1_identity();
  EXPECT_EQ(p + o, p);
  EXPECT_EQ(o + p, p);
  EXPECT_EQ(p + q, q + p);
  EXPECT_TRUE((p + p.neg()).is_identity());
  EXPECT_EQ(p - q, p + q.neg());
}

TEST_F(CurveTest, AssociativitySampled) {
  for (int i = 0; i < 10; ++i) {
    const G1 a = grp->g1_random(rng), b = grp->g1_random(rng), c = grp->g1_random(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST_F(CurveTest, ScalarMulMatchesRepeatedAddition) {
  const G1 p = grp->g1_random(rng);
  G1 acc = grp->g1_identity();
  for (uint64_t k = 0; k < 12; ++k) {
    EXPECT_EQ(p.mul(grp->zr_from_u64(k)), acc) << k;
    acc = acc + p;
  }
}

TEST_F(CurveTest, ScalarMulDistributes) {
  const G1 p = grp->g1_random(rng);
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  EXPECT_EQ(p.mul(a) + p.mul(b), p.mul(a + b));
  EXPECT_EQ(p.mul(a).mul(b), p.mul(a * b));
}

TEST_F(CurveTest, DoublingConsistent) {
  const G1 p = grp->g1_random(rng);
  EXPECT_EQ(p + p, p.mul(grp->zr_from_u64(2)));
}

TEST_F(CurveTest, RandomPointsAreInSubgroup) {
  for (int i = 0; i < 5; ++i) {
    const G1 p = grp->g1_random(rng);
    EXPECT_TRUE(p.mul(grp->zr_from_bignum(grp->order())).is_identity());
  }
}

TEST_F(CurveTest, HashToG1DeterministicAndInSubgroup) {
  const G1 a1 = grp->hash_to_g1(std::string_view("attribute:doctor"));
  const G1 a2 = grp->hash_to_g1(std::string_view("attribute:doctor"));
  const G1 b = grp->hash_to_g1(std::string_view("attribute:nurse"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_FALSE(a1.is_identity());
  EXPECT_TRUE(a1.mul(grp->zr_from_bignum(grp->order())).is_identity());
}

TEST_F(CurveTest, SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G1 p = grp->g1_random(rng);
    const Bytes b = p.to_bytes();
    EXPECT_EQ(b.size(), grp->g1_size());
    EXPECT_EQ(grp->g1_from_bytes(b), p);
  }
}

TEST_F(CurveTest, SerializationIdentity) {
  const Bytes b = grp->g1_identity().to_bytes();
  EXPECT_EQ(b.size(), grp->g1_size());
  EXPECT_TRUE(grp->g1_from_bytes(b).is_identity());
}

TEST_F(CurveTest, SerializationNegatesWithSignBit) {
  const G1 p = grp->g1_random(rng);
  Bytes b = p.to_bytes();
  b.back() ^= 1;  // flip the sign flag
  EXPECT_EQ(grp->g1_from_bytes(b), p.neg());
}

TEST_F(CurveTest, UncompressedSerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G1 p = grp->g1_random(rng);
    const Bytes b = p.to_bytes_uncompressed();
    EXPECT_EQ(b.size(), grp->g1_uncompressed_size());
    EXPECT_EQ(grp->g1_from_bytes_uncompressed(b), p);
  }
  const Bytes id = grp->g1_identity().to_bytes_uncompressed();
  EXPECT_EQ(id.size(), grp->g1_uncompressed_size());
  EXPECT_TRUE(grp->g1_from_bytes_uncompressed(id).is_identity());
}

TEST_F(CurveTest, UncompressedDeserializationRejectsMalformed) {
  const G1 p = grp->g1_random(rng);
  const Bytes good = p.to_bytes_uncompressed();
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(Bytes(good.size() - 1)), WireError);
  Bytes flag = good;
  flag.back() = 1;  // only 0 (point) and 2 (infinity) are valid
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(flag), WireError);
  Bytes off = good;
  off[good.size() / 2] ^= 0x5a;  // break y: (x, y) leaves the curve
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(off), WireError);
  Bytes inf(grp->g1_uncompressed_size(), 0);
  inf.back() = 2;
  inf[0] = 1;  // nonzero coordinate bytes in an infinity encoding
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(inf), WireError);
}

TEST_F(CurveTest, DeserializationRejectsMalformed) {
  EXPECT_THROW(grp->g1_from_bytes(Bytes(grp->g1_size() - 1)), WireError);
  Bytes bad(grp->g1_size(), 0);
  bad.back() = 7;  // invalid flag
  EXPECT_THROW(grp->g1_from_bytes(bad), WireError);
  // x = 1: rhs = 2; whether 2 is a QR depends on q, so instead use a
  // known non-liftable x by searching.
  crypto::Drbg local("bad-x");
  for (int i = 0; i < 50; ++i) {
    Bytes cand = local.bytes(grp->g1_size());
    cand.back() = 0;
    try {
      (void)grp->g1_from_bytes(cand);
    } catch (const WireError&) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "never saw a rejected x-coordinate";
}

TEST_F(CurveTest, MixedGroupOperationsRejected) {
  auto other = Group::test_small();
  const G1 p = grp->g1_random(rng);
  crypto::Drbg rng2("other");
  const G1 q = other->g1_random(rng2);
  EXPECT_THROW((void)(p + q), MathError);
  EXPECT_THROW((void)(p == q), MathError);
  EXPECT_THROW((void)p.mul(other->zr_one()), MathError);
}

TEST_F(CurveTest, UninitializedElementsRejected) {
  G1 p;
  EXPECT_THROW((void)p.to_bytes(), MathError);
  EXPECT_THROW((void)p.neg(), MathError);
  Zr z;
  EXPECT_THROW((void)z.to_bytes(), MathError);
}

// The three decoder-side checks — g1_from_bytes, the uncompressed
// decoder and in_subgroup — reject exactly the inputs they rejected
// before the field layer moved to fixed-width limbs. Every input is
// built from bytes and plain Bignum arithmetic (no field-layer calls),
// at both curve sizes.
class G1DecoderChecks : public ::testing::TestWithParam<bool> {
 protected:
  G1DecoderChecks()
      : grp(GetParam() ? Group::pbc_a512() : Group::test_small()),
        q(grp->params().q),
        width(grp->ctx().fq().byte_length()) {}

  Bignum rhs(const Bignum& x) const {  // x^3 + x mod q
    return Bignum::mod_add(Bignum::mod_mul(Bignum::mod_mul(x, x, q), x, q), x, q);
  }
  bool is_qr(const Bignum& v) const {
    return Bignum::mod_pow(v, Bignum::shr(Bignum::sub(q, Bignum::from_u64(1)), 1), q)
        .is_one();
  }
  Bytes compressed(const Bignum& x, uint8_t flag) const {
    Bytes out = x.to_bytes_be(width);
    out.push_back(flag);
    return out;
  }
  Bytes uncompressed(const Bignum& x, const Bignum& y) const {
    Bytes out = x.to_bytes_be(width);
    const Bytes yb = y.to_bytes_be(width);
    out.insert(out.end(), yb.begin(), yb.end());
    out.push_back(0);
    return out;
  }

  std::shared_ptr<const Group> grp;
  Bignum q;
  size_t width;
};

TEST_P(G1DecoderChecks, RejectMalformedOffCurveAndAcceptCosetPoints) {
  // Find one x whose x^3 + x is a non-residue (not on the curve) and one
  // whose is a residue (a point, almost surely outside the subgroup).
  Bignum off_x, on_x, on_y;
  bool have_off = false, have_on = false;
  for (uint64_t v = 2; v < 200 && !(have_off && have_on); ++v) {
    const Bignum x = Bignum::from_u64(v);
    if (is_qr(rhs(x))) {
      if (!have_on) {
        on_x = x;
        on_y = Bignum::mod_pow(rhs(x), Bignum::shr(Bignum::add(q, Bignum::from_u64(1)), 2), q);
        ASSERT_EQ(Bignum::mod_mul(on_y, on_y, q), rhs(x));
        have_on = true;
      }
    } else if (!have_off) {
      off_x = x;
      have_off = true;
    }
  }
  ASSERT_TRUE(have_off && have_on);

  // ---- compressed: x || flag
  EXPECT_THROW(grp->g1_from_bytes(Bytes(grp->g1_size() - 1)), WireError);
  EXPECT_THROW(grp->g1_from_bytes(Bytes(grp->g1_size() + 1)), WireError);
  EXPECT_THROW(grp->g1_from_bytes(compressed(on_x, 3)), WireError);      // bad flag
  EXPECT_THROW(grp->g1_from_bytes(compressed(on_x, 2)), WireError);      // dirty infinity
  EXPECT_THROW(grp->g1_from_bytes(compressed(off_x, 0)), WireError);     // not on curve
  EXPECT_THROW(grp->g1_from_bytes(compressed(off_x, 1)), WireError);
  EXPECT_THROW(grp->g1_from_bytes(compressed(q, 0)), WireError);         // x == q
  EXPECT_THROW(grp->g1_from_bytes(Bytes(grp->g1_size(), 0xff)), WireError);
  EXPECT_TRUE(grp->g1_from_bytes(compressed(Bignum(), 2)).is_identity());

  // ---- uncompressed: x || y || flag
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(Bytes(grp->g1_uncompressed_size() + 1)),
               WireError);
  Bytes flag1 = uncompressed(on_x, on_y);
  flag1.back() = 1;
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(flag1), WireError);
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(uncompressed(q, on_y)), WireError);
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(uncompressed(on_x, q)), WireError);
  const Bignum y_plus_1 = Bignum::mod_add(on_y, Bignum::from_u64(1), q);
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(uncompressed(on_x, y_plus_1)), WireError);
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(uncompressed(off_x, on_y)), WireError);

  // ---- on-curve coset points decode (both forms, both signs) but fail
  // the subgroup check; the two encodings agree.
  const G1 c0 = grp->g1_from_bytes(compressed(on_x, 0));
  const G1 c1 = grp->g1_from_bytes(compressed(on_x, 1));
  const G1 u = grp->g1_from_bytes_uncompressed(uncompressed(on_x, on_y));
  EXPECT_EQ(c0, c1.neg());
  EXPECT_EQ(u, on_y.is_odd() ? c1 : c0);
  EXPECT_EQ(u.to_bytes_uncompressed(), uncompressed(on_x, on_y));
  EXPECT_FALSE(c0.in_subgroup());
  EXPECT_FALSE(u.in_subgroup());

  // (0, 0) is on the curve with order 2: decodes, not in the subgroup.
  const G1 two_torsion = grp->g1_from_bytes_uncompressed(uncompressed(Bignum(), Bignum()));
  EXPECT_FALSE(two_torsion.is_identity());
  EXPECT_FALSE(two_torsion.in_subgroup());
  EXPECT_TRUE((two_torsion + two_torsion).is_identity());

  // Subgroup points and the identity pass.
  crypto::Drbg rng(std::string_view("decoder-checks"));
  const G1 p = grp->g1_random(rng);
  EXPECT_TRUE(grp->g1_from_bytes(p.to_bytes()).in_subgroup());
  EXPECT_TRUE(grp->g1_from_bytes_uncompressed(p.to_bytes_uncompressed()).in_subgroup());
  EXPECT_TRUE(grp->g1_identity().in_subgroup());
}

INSTANTIATE_TEST_SUITE_P(Curves, G1DecoderChecks, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "pbc_a512" : "test_small");
                         });

}  // namespace
}  // namespace maabe::pairing
