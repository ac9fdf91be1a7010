#include "pairing/fixed_base.h"

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

namespace {

int digit_at(const Bignum& k, int d, int w) {
  int out = 0;
  for (int b = 0; b < w; ++b) {
    if (k.bit(d * w + b)) out |= 1 << b;
  }
  return out;
}

}  // namespace

G1FixedBase::G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits,
                         int window_bits)
    : curve_(curve), window_bits_(window_bits) {
  if (base.inf) throw MathError("G1FixedBase: base must not be infinity");
  if (window_bits < 1 || window_bits > 8) throw MathError("G1FixedBase: bad window");
  if (exp_bits < 1) throw MathError("G1FixedBase: bad exponent width");
  digits_ = (exp_bits + window_bits - 1) / window_bits;
  const size_t span = size_t{1} << window_bits;

  // Digit bases B_d = base * 2^(w*d): w Jacobian doublings apart, all
  // normalized with one inversion (mixed additions want them affine).
  std::vector<JacPoint> jac(digits_);
  jac[0] = curve_.to_jac(base);
  for (int d = 1; d < digits_; ++d) {
    jac[d] = jac[d - 1];
    for (int b = 0; b < window_bits; ++b) jac[d] = curve_.jac_dbl(jac[d]);
  }
  const std::vector<AffinePoint> digit_base = curve_.to_affine_batch(jac);

  // Rows T[d][j] = T[d][j-1] + B_d by mixed addition, then one more
  // batch normalization for the whole table. Affine coordinates are
  // canonical, so every entry has the bits a per-entry affine add gives.
  jac.assign(digits_ * span, curve_.to_jac(AffinePoint::infinity()));
  for (int d = 0; d < digits_; ++d) {
    if (digit_base[d].inf) continue;  // a small-order base: row stays infinity
    JacPoint* row = &jac[d * span];
    for (size_t j = 1; j < span; ++j) row[j] = curve_.jac_add_mixed(row[j - 1], digit_base[d]);
  }
  table_ = curve_.to_affine_batch(jac);
}

AffinePoint G1FixedBase::pow(const Bignum& k) const {
  if (k.bit_length() > digits_ * window_bits_)
    throw MathError("G1FixedBase: exponent exceeds table range");
  // Accumulate in Jacobian coordinates (mixed additions against the
  // affine table entries); a single inversion at the end.
  JacPoint acc = curve_.to_jac(AffinePoint::infinity());
  for (int d = 0; d < digits_; ++d) {
    // Entry 0 — and, for a base of tiny order, others — is infinity.
    const AffinePoint& e = entry(d, digit_at(k, d, window_bits_));
    if (!e.inf) acc = curve_.jac_add_mixed(acc, e);
  }
  return curve_.to_affine(acc);
}

GtFixedBase::GtFixedBase(const Fp2Ctx& fq2, const Fp2& base, int exp_bits,
                         int window_bits)
    : fq2_(fq2), window_bits_(window_bits) {
  if (fq2.is_zero(base)) throw MathError("GtFixedBase: zero base");
  if (window_bits < 1 || window_bits > 8) throw MathError("GtFixedBase: bad window");
  digits_ = (exp_bits + window_bits - 1) / window_bits;
  const int span = 1 << window_bits;

  // GT bases live in the norm-1 cyclotomic subgroup, where squaring
  // costs two base-field squarings instead of a full multiply; even
  // table entries are squares of earlier ones, so build them that way.
  // (Bit-identical either path — the guard only exists for callers that
  // precompute arbitrary F_{q^2} elements.)
  const bool norm1 = fq2.is_norm_one(base);
  table_.resize(digits_);
  Fp2 digit_base = base;
  for (int d = 0; d < digits_; ++d) {
    auto& row = table_[d];
    row.resize(span);
    row[0] = fq2_.one();
    row[1] = digit_base;
    for (int j = 2; j < span; ++j) {
      row[j] = (norm1 && j % 2 == 0) ? fq2_.sqr_cyclotomic(row[j / 2])
                                     : fq2_.mul(row[j - 1], digit_base);
    }
    if (d + 1 < digits_) {
      digit_base = norm1 ? fq2_.sqr_cyclotomic(row[span / 2])
                         : fq2_.mul(row[span - 1], digit_base);
    }
  }
}

Fp2 GtFixedBase::pow(const Bignum& k) const {
  if (k.bit_length() > digits_ * window_bits_)
    throw MathError("GtFixedBase: exponent exceeds table range");
  Fp2 acc = fq2_.one();
  for (int d = 0; d < digits_; ++d) {
    const int digit = digit_at(k, d, window_bits_);
    if (digit != 0) acc = fq2_.mul(acc, table_[d][digit]);
  }
  return acc;
}

}  // namespace maabe::pairing
