// Differential test of the fixed-width field layer (pairing::FpCtx)
// against GMP, an independent big-integer oracle: the 3-limb test
// field, the 8-limb field of the paper's curve (top bit of the last limb
// set), an 8-limb 480-bit field (top bit clear) and an 8-limb field
// whose last limb is all ones (the most carries), each on every kernel
// set the CPU offers (the portable C++ kernels everywhere, the mulx/adx
// multiply on x86-64 with ADX and BMI2).
//
// Elements cross between the two libraries through the fixed-width
// big-endian encoding (FpCtx::to_bytes/from_bytes <-> mpz_import/
// mpz_export), so the codec is checked on every operand as well.
//
// The last tests compare a batch-normalized G1FixedBase table with one
// built the way the tables used to be built — one affine CurveCtx::add,
// hence one field inversion, per entry — kept here as the reference.
#include <gmp.h>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/errors.h"
#include "pairing/fixed_base.h"
#include "pairing/fp.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

/// RAII mpz_t.
class Mpz {
 public:
  Mpz() { mpz_init(v_); }
  explicit Mpz(const Bignum& b) {
    mpz_init(v_);
    mpz_set_str(v_, b.to_hex().c_str(), 16);
  }
  ~Mpz() { mpz_clear(v_); }
  Mpz(const Mpz& o) {
    mpz_init(v_);
    mpz_set(v_, o.v_);
  }
  Mpz& operator=(const Mpz& o) {
    mpz_set(v_, o.v_);
    return *this;
  }
  mpz_ptr get() { return v_; }
  mpz_srcptr get() const { return v_; }

 private:
  mpz_t v_;
};

/// Type-A parameters over a 480-bit field (generated offline, validated
/// by the test that uses them): 8 limbs whose last one leaves the top 32
/// bits clear, so the reduction's carry word stays zero — the other case
/// from the shipped curves, which both use the top bit.
const TypeAParams& params_p480() {
  static const TypeAParams params = {
      Bignum::from_hex("bb3ae109f0036ce2f7d1f3511e13752e11500e85e9d9a786a283582deabc31bc"
                       "7c25f9131689d0f1192436850bf47c34ed2deb516046d647099f2d47"),
      Bignum::from_hex("be82d974418d4cffbaf35711a6e57106c28c859f"),
      Bignum::from_hex("fb974970094a5a0ffc7672d10ae8bb7275a3649aeadd6d414f7a7adc32d2d4e5"
                       "6492045b17cffdb8")};
  return params;
}

/// Type-A parameters whose 512-bit q has an all-ones top limb (q just
/// below 2^512, generated offline): every product's high words and the
/// running value's carry word reach their extremes far more often than
/// at the other moduli.
const TypeAParams& params_p512_ones() {
  static const TypeAParams params = {
      Bignum::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
                       "ffffffffffffffffffffff07b731b9536dfb9a6156656db11874453025966703"),
      Bignum::from_hex("9eeee29625f56ec8fd6ea80ee1ea56ce4b20791d"),
      Bignum::from_hex("19c5977a861a25db45564a15265cb799f4d2a65a7a53c5b6eb8b719a5d6e5604c"
                       "31bb5c7e47333019a2aa97d4")};
  return params;
}

/// One field on one kernel set.
struct FieldCase {
  const char* name;
  const TypeAParams& (*params)();
  FpCtx::KernelSet set = FpCtx::KernelSet::kPortable;
};

void PrintTo(const FieldCase& c, std::ostream* os) { *os << c.name; }

bool has_set(const FieldCase& c) {
  return FpCtx::has_kernel_set(c.set, c.params().q.limb_count());
}

/// The case's context; the portable set stands in where the case's set
/// is missing (the test then skips).
FpCtx ctx_for(const FieldCase& c) {
  return FpCtx(c.params().q, has_set(c) ? c.set : FpCtx::KernelSet::kPortable);
}

const auto kCaseName = [](const auto& info) { return std::string(info.param.name); };

/// The portable set on every field, plus the adx set on the 8-limb
/// ones. The unsuffixed names are the portable runs.
const auto kFieldCases = ::testing::Values(
    FieldCase{"test_small", &TypeAParams::test_small},
    FieldCase{"pbc_a512", &TypeAParams::pbc_a512},
    FieldCase{"pbc_a512_adx", &TypeAParams::pbc_a512, FpCtx::KernelSet::kAdx},
    FieldCase{"p480", &params_p480},
    FieldCase{"p480_adx", &params_p480, FpCtx::KernelSet::kAdx},
    FieldCase{"p512_ones", &params_p512_ones},
    FieldCase{"p512_ones_adx", &params_p512_ones, FpCtx::KernelSet::kAdx});

/// Seeded random operands plus the edge cases: 0, 1, 2, p-1, p-2,
/// (p-1)/2, (p+1)/2, 2^(64(n-1)) (only the top limb set), p - 2^64,
/// and a top limb one below p's with every lower bit set.
std::vector<Fp> operands(const FpCtx& fq, crypto::Drbg& rng, size_t random_count) {
  std::vector<Fp> out;
  const Bignum& q = fq.modulus();
  const Bignum one = Bignum::from_u64(1);
  const int n = fq.limbs();
  out.push_back(fq.zero());
  out.push_back(fq.one());
  out.push_back(fq.enc(Bignum::from_u64(2)));
  out.push_back(fq.enc(Bignum::sub(q, one)));
  out.push_back(fq.enc(Bignum::sub(q, Bignum::from_u64(2))));
  out.push_back(fq.enc(Bignum::shr(Bignum::sub(q, one), 1)));
  out.push_back(fq.enc(Bignum::shr(Bignum::add(q, one), 1)));
  out.push_back(fq.enc(Bignum::shl(one, 64 * (n - 1))));
  out.push_back(fq.enc(Bignum::sub(q, Bignum::shl(one, 64))));
  const Bignum top = Bignum::shl(Bignum::from_u64(q.limb(n - 1) - 1), 64 * (n - 1));
  out.push_back(fq.enc(Bignum::add(top, Bignum::sub(Bignum::shl(one, 64 * (n - 1)), one))));
  for (size_t i = 0; i < random_count; ++i) out.push_back(fq.random(rng));
  return out;
}

class FieldDiffTest : public ::testing::TestWithParam<FieldCase> {
 protected:
  FieldDiffTest() : fq(ctx_for(GetParam())), p(GetParam().params().q) {}

  void SetUp() override {
    if (!has_set(GetParam())) GTEST_SKIP() << "kernel set not offered by this CPU";
  }

  Mpz to_mpz(const Fp& x) const {
    const Bytes b = fq.to_bytes(x);
    Mpz out;
    mpz_import(out.get(), b.size(), 1, 1, 1, 0, b.data());
    return out;
  }

  Fp from_mpz(const Mpz& v) const {
    Bytes b(fq.byte_length(), 0);
    size_t count = 0;
    Bytes tmp(fq.byte_length() + 8, 0);
    mpz_export(tmp.data(), &count, 1, 1, 1, 0, v.get());
    if (count > b.size()) {
      ADD_FAILURE() << "value wider than the field";
      return fq.zero();
    }
    std::copy(tmp.begin(), tmp.begin() + count, b.end() - count);
    return fq.from_bytes(b);
  }

  std::vector<Fp> operands(size_t random_count) {
    return pairing::operands(fq, rng, random_count);
  }

  FpCtx fq;
  Mpz p;
  crypto::Drbg rng{std::string_view("field-diff")};
};

TEST_P(FieldDiffTest, LimbCountMatchesField) {
  EXPECT_EQ(fq.limbs(), (fq.modulus().bit_length() + 63) / 64);
  EXPECT_STREQ(fq.kernel_name(),
               GetParam().set == FpCtx::KernelSet::kAdx ? "adx" : "portable");
  // Both shipped curves use the top bit of their last limb — the case
  // that needs the carry word in the reduction; the 480-bit field leaves
  // it clear.
  const auto params = GetParam().params;
  if (params == &params_p480 || params == &params_p512_ones) params().validate();
  if (params == &params_p480) {
    EXPECT_EQ(fq.modulus().bit_length(), 480);
  } else {
    EXPECT_EQ(fq.modulus().bit_length() % 64, 0);
  }
  if (params == &params_p512_ones) {
    EXPECT_EQ(fq.modulus().limb(7), ~uint64_t{0});
  }
}

TEST_P(FieldDiffTest, CodecMatchesGmp) {
  for (const Fp& a : operands(500)) {
    const Mpz m = to_mpz(a);
    EXPECT_LT(mpz_cmp(m.get(), p.get()), 0);
    EXPECT_EQ(from_mpz(m), a);
    // dec agrees with the byte codec, and enc inverts it.
    EXPECT_EQ(mpz_cmp(Mpz(fq.dec(a)).get(), m.get()), 0);
    EXPECT_EQ(fq.enc(fq.dec(a)), a);
  }
}

TEST_P(FieldDiffTest, RingOpsMatchGmp) {
  const std::vector<Fp> xs = operands(2000);
  Mpz expect, ma, mb;
  for (size_t i = 0; i < xs.size(); ++i) {
    // Every edge case meets every other; random operands pair with a
    // neighbour.
    for (size_t j = 0; j < xs.size(); j += (i < 10 ? 1 : xs.size())) {
      const Fp& a = xs[i];
      const Fp& b = xs[j == i && i >= 10 ? (i + 1) % xs.size() : j];
      ma = to_mpz(a);
      mb = to_mpz(b);

      mpz_mul(expect.get(), ma.get(), mb.get());
      mpz_mod(expect.get(), expect.get(), p.get());
      ASSERT_EQ(mpz_cmp(to_mpz(fq.mul(a, b)).get(), expect.get()), 0) << i << "," << j;

      mpz_add(expect.get(), ma.get(), mb.get());
      mpz_mod(expect.get(), expect.get(), p.get());
      ASSERT_EQ(mpz_cmp(to_mpz(fq.add(a, b)).get(), expect.get()), 0) << i << "," << j;

      mpz_sub(expect.get(), ma.get(), mb.get());
      mpz_mod(expect.get(), expect.get(), p.get());
      ASSERT_EQ(mpz_cmp(to_mpz(fq.sub(a, b)).get(), expect.get()), 0) << i << "," << j;
    }
    const Fp& a = xs[i];
    ma = to_mpz(a);

    mpz_mul(expect.get(), ma.get(), ma.get());
    mpz_mod(expect.get(), expect.get(), p.get());
    ASSERT_EQ(mpz_cmp(to_mpz(fq.sqr(a)).get(), expect.get()), 0) << i;
    ASSERT_EQ(fq.sqr(a), fq.mul(a, a)) << i;

    mpz_neg(expect.get(), ma.get());
    mpz_mod(expect.get(), expect.get(), p.get());
    ASSERT_EQ(mpz_cmp(to_mpz(fq.neg(a)).get(), expect.get()), 0) << i;
    ASSERT_EQ(mpz_cmp(to_mpz(fq.dbl(a)).get(), to_mpz(fq.add(a, a)).get()), 0) << i;
  }
}

TEST_P(FieldDiffTest, MulAllowsAliasedOutput) {
  for (const Fp& a : operands(100)) {
    const Fp b = fq.random(rng);
    const Fp ab = fq.mul(a, b), aa = fq.mul(a, a);
    Fp r = a;
    fq.mul_limbs(r.l.data(), r.l.data(), b.l.data());  // r == a
    ASSERT_EQ(r, ab);
    r = b;
    fq.mul_limbs(r.l.data(), a.l.data(), r.l.data());  // r == b
    ASSERT_EQ(r, ab);
    r = a;
    fq.mul_limbs(r.l.data(), r.l.data(), r.l.data());  // r == a == b
    ASSERT_EQ(r, aa);
  }
}

TEST_P(FieldDiffTest, InverseMatchesGmp) {
  Mpz expect;
  // Fermat's a^(q-2): the alternative the binary gcd was measured against.
  const Bignum fermat = Bignum::sub(fq.modulus(), Bignum::from_u64(2));
  for (const Fp& a : operands(1000)) {
    if (a.is_zero()) continue;
    const Mpz ma = to_mpz(a);
    ASSERT_NE(mpz_invert(expect.get(), ma.get(), p.get()), 0);
    ASSERT_EQ(mpz_cmp(to_mpz(fq.inv(a)).get(), expect.get()), 0);
    ASSERT_EQ(fq.pow(a, fermat), fq.inv(a));
  }
}

TEST_P(FieldDiffTest, BatchInverseMatchesGmpAndKeepsZeros) {
  std::vector<Fp> xs = operands(200);
  xs.push_back(fq.zero());  // zeros first, in the middle and last
  const std::vector<Fp> orig = xs;
  fq.batch_inv(xs);
  Mpz expect;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (orig[i].is_zero()) {
      EXPECT_TRUE(xs[i].is_zero()) << i;
      continue;
    }
    ASSERT_NE(mpz_invert(expect.get(), to_mpz(orig[i]).get(), p.get()), 0);
    ASSERT_EQ(mpz_cmp(to_mpz(xs[i]).get(), expect.get()), 0) << i;
  }
  // All zeros and the empty batch are no-ops.
  std::vector<Fp> zeros(3, fq.zero());
  fq.batch_inv(zeros);
  for (const Fp& z : zeros) EXPECT_TRUE(z.is_zero());
  fq.batch_inv({});
}

TEST_P(FieldDiffTest, PowMatchesGmp) {
  const std::vector<Fp> xs = operands(200);
  const Bignum& q = fq.modulus();
  std::vector<Bignum> exps = {Bignum(), Bignum::from_u64(1), Bignum::from_u64(2),
                              Bignum::sub(q, Bignum::from_u64(1)),
                              Bignum::sub(q, Bignum::from_u64(2)),
                              Bignum::shl(Bignum::from_u64(1), 64 * fq.limbs())};
  Mpz expect;
  for (size_t i = 0; i < xs.size(); ++i) {
    const Bignum e = i < exps.size() ? exps[i] : rng.below(q);
    const Mpz ma = to_mpz(xs[i]);
    const Mpz me(e);
    mpz_powm(expect.get(), ma.get(), me.get(), p.get());
    ASSERT_EQ(mpz_cmp(to_mpz(fq.pow(xs[i], e)).get(), expect.get()), 0) << i;
  }
}

TEST_P(FieldDiffTest, FromBytesRejectsUnreducedValues) {
  Bytes pb(fq.byte_length(), 0);
  size_t count = 0;
  mpz_export(pb.data(), &count, 1, 1, 1, 0, p.get());
  ASSERT_EQ(count, pb.size());
  EXPECT_THROW(fq.from_bytes(pb), WireError);  // p itself
  EXPECT_THROW(fq.from_bytes(Bytes(fq.byte_length(), 0xff)), WireError);
  EXPECT_THROW(fq.inv(fq.zero()), MathError);
}

INSTANTIATE_TEST_SUITE_P(Curves, FieldDiffTest, kFieldCases, kCaseName);

// The adx multiply against the portable one on the same operands, so the
// portable fallback stays checked on hosts that run adx by default.
TEST(KernelSetTest, AdxMulMatchesPortableOnSeededOperands) {
  if (!FpCtx::has_kernel_set(FpCtx::KernelSet::kAdx, 8)) GTEST_SKIP() << "no ADX/BMI2";
  for (const TypeAParams* params :
       {&TypeAParams::pbc_a512(), &params_p480(), &params_p512_ones()}) {
    const Bignum& q = params->q;
    const FpCtx adx(q, FpCtx::KernelSet::kAdx);
    const FpCtx portable(q, FpCtx::KernelSet::kPortable);
    crypto::Drbg rng(std::string_view("kernel-sets"));
    // The edge cases, raw limb patterns below q (one limb set to 1 or
    // to all ones, runs of all-ones limbs from either end — sparse
    // values such as the plain 1 that to_bytes multiplies by make the
    // carry chains line up), and seeded residues: 512 operands, each
    // multiplied by 256 others and squared, 131k+ products per field.
    std::vector<Fp> xs = operands(portable, rng, 0);
    for (int k = 0; k < 8; ++k) {
      Fp one_limb, ones_limb, low_ones, high_ones;
      one_limb.l[k] = 1;
      ones_limb.l[k] = ~uint64_t{0};
      for (int j = 0; j < 8; ++j) {
        if (j <= k) low_ones.l[j] = ~uint64_t{0};
        if (j >= k) high_ones.l[j] = ~uint64_t{0};
      }
      for (const Fp& v : {one_limb, ones_limb, low_ones, high_ones}) {
        if (Bignum::cmp(Bignum::from_limbs_le(v.l.data(), 8), q) < 0) xs.push_back(v);
      }
    }
    while (xs.size() < 512) xs.push_back(portable.random(rng));
    size_t checked = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(adx.sqr(xs[i]), portable.sqr(xs[i])) << i;
      for (size_t k = 0; k < 256; ++k) {
        const Fp& b = xs[(i * 7 + k * 13) % xs.size()];
        ASSERT_EQ(adx.mul(xs[i], b), portable.mul(xs[i], b)) << i << "," << k;
        ++checked;
      }
    }
    EXPECT_GE(checked, 100000u);
  }
}

// ------------------------------------------------------ window tables --

/// The pre-batch construction: every entry by one affine addition.
std::vector<AffinePoint> per_entry_table(const CurveCtx& curve, const AffinePoint& base,
                                         int exp_bits, int w) {
  const int digits = (exp_bits + w - 1) / w;
  const int span = 1 << w;
  std::vector<AffinePoint> out;
  AffinePoint digit_base = base;
  for (int d = 0; d < digits; ++d) {
    const size_t row = out.size();
    out.push_back(AffinePoint::infinity());
    out.push_back(digit_base);
    for (int j = 2; j < span; ++j) out.push_back(curve.add(out[row + j - 1], digit_base));
    if (d + 1 < digits) digit_base = curve.add(out[row + span - 1], digit_base);
  }
  return out;
}

void expect_same_point(const AffinePoint& a, const AffinePoint& b, int d, int j) {
  ASSERT_EQ(a.inf, b.inf) << "entry " << d << "," << j;
  if (a.inf) return;
  ASSERT_EQ(a.x, b.x) << "entry " << d << "," << j;
  ASSERT_EQ(a.y, b.y) << "entry " << d << "," << j;
}

class TableDiffTest : public ::testing::TestWithParam<FieldCase> {
 protected:
  void SetUp() override {
    if (!has_set(GetParam())) GTEST_SKIP() << "kernel set not offered by this CPU";
  }
};

TEST_P(TableDiffTest, BatchNormalizedTableEqualsPerEntryTable) {
  const TypeAParams& params = GetParam().params();
  const FpCtx fq = ctx_for(GetParam());
  const CurveCtx curve(fq);
  const int bits = params.r.bit_length();
  crypto::Drbg rng(std::string_view("table-diff"));

  // A raw on-curve point (almost surely outside the order-r subgroup),
  // its cofactor-cleared image (what the engine tables), and (0, 0), a
  // point of order 2 whose rows run into infinity.
  std::vector<AffinePoint> bases;
  for (int i = 0; i < 200 && bases.empty(); ++i) {
    const Fp x = fq.random(rng);
    Fp y;
    if (!curve.lift_x(x, &y)) continue;
    bases.push_back({x, y, false});
    bases.push_back(curve.mul(bases[0], params.h));
  }
  ASSERT_FALSE(bases.empty()) << "no x lifted to the curve";
  bases.push_back({fq.zero(), fq.zero(), false});
  ASSERT_TRUE(curve.is_on_curve(bases.back()));

  const std::vector<int> windows = std::string(GetParam().name) == "test_small"
                                       ? std::vector<int>{1, 2, 3, 4, 5, 8}
                                       : std::vector<int>{4};
  for (int w : windows) {
    for (const AffinePoint& base : bases) {
      const G1FixedBase table(curve, base, bits, w);
      const std::vector<AffinePoint> ref = per_entry_table(curve, base, bits, w);
      ASSERT_EQ(static_cast<size_t>(table.digits()) << w, ref.size());
      for (int d = 0; d < table.digits(); ++d) {
        for (int j = 0; j < (1 << w); ++j)
          expect_same_point(table.entry(d, j), ref[(static_cast<size_t>(d) << w) + j], d, j);
      }
      for (int i = 0; i < 8; ++i) {
        const Bignum k = i == 0 ? Bignum() : rng.below(params.r);
        const AffinePoint got = table.pow(k);
        const AffinePoint want = curve.mul(base, k);
        ASSERT_TRUE(curve.eq(got, want)) << "w=" << w << " k=" << k.to_hex();
        if (!got.inf) {
          EXPECT_EQ(got.x, want.x);
          EXPECT_EQ(got.y, want.y);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Curves, TableDiffTest, kFieldCases, kCaseName);

}  // namespace
}  // namespace maabe::pairing
