// Montgomery modular arithmetic context for a fixed odd modulus, on
// Bignum values of any width.
//
// CIOS Montgomery multiplication avoids the per-operation long division
// that plain mod-mul would need. Elements handled by a MontCtx are
// Bignums in Montgomery representation (a*R mod p, where
// R = 2^(64*limbs)); convert at the boundary with to_mont()/from_mont().
// This is the generic reference: Miller-Rabin (prime.cpp) uses it, and
// benchmarks time the pairing layer's fixed-width kernels
// (pairing::FpCtx, same R, so the same residues) against it.
#pragma once

#include "math/bignum.h"

namespace maabe::math {

class MontCtx {
 public:
  /// Modulus must be odd and >= 3. Throws MathError otherwise.
  explicit MontCtx(const Bignum& modulus);

  const Bignum& modulus() const { return p_; }
  int limbs() const { return n_; }
  /// Bytes needed to serialize a reduced residue.
  size_t byte_length() const { return byte_len_; }
  int bit_length() const { return bits_; }

  /// a must be < modulus.
  Bignum to_mont(const Bignum& a) const;
  Bignum from_mont(const Bignum& a) const;

  /// Montgomery product of two Montgomery-form values.
  Bignum mul(const Bignum& a, const Bignum& b) const;
  /// Montgomery square: SOS with halved cross products, ~25% fewer
  /// 64x64 multiplies than mul(a, a). Identical result bits.
  Bignum sqr(const Bignum& a) const;

  // Plain modular add/sub/neg: representation-agnostic (work equally on
  // Montgomery or standard form, as long as both operands match).
  Bignum add(const Bignum& a, const Bignum& b) const;
  Bignum sub(const Bignum& a, const Bignum& b) const;
  Bignum neg(const Bignum& a) const;

  /// base in Montgomery form, exponent a plain integer; Montgomery result.
  Bignum pow(const Bignum& base, const Bignum& exp) const;
  /// Inverse of a Montgomery-form value, in Montgomery form.
  Bignum inv(const Bignum& a) const;

  /// Montgomery form of 1 (i.e. R mod p).
  const Bignum& one() const { return one_; }

 private:
  Bignum p_;
  Bignum r2_;   // R^2 mod p
  Bignum one_;  // R mod p
  uint64_t n0_ = 0;  // -p^{-1} mod 2^64
  int n_ = 0;
  int bits_ = 0;
  size_t byte_len_ = 0;
};

}  // namespace maabe::math
