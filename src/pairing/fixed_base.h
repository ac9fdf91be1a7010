// Fixed-base windowed exponentiation.
//
// Every algorithm in the scheme exponentiates the same two bases over
// and over: the generator g (KeyGen, Encrypt) and e(g,g) (Encrypt,
// authority public keys). Precomputing radix-2^w digit tables
//   T[d][j] = base^(j * 2^(w*d)),  j in [0, 2^w)
// turns a b-bit exponentiation into ceil(b/w) group operations with no
// doublings/squarings — a 4-6x speedup for w = 4 at 160-bit exponents.
//
// The tables are built once per Group (see group.h) and shared by all
// callers; lookups are value-dependent (NOT constant-time, like the rest
// of this research library). G1 tables are built in Jacobian
// coordinates and normalized to affine in two batches (digit bases,
// then entries), one field inversion each; a parallel build normalizes
// its entries per group of rows instead.
#pragma once

#include <functional>
#include <vector>

#include "pairing/curve.h"
#include "pairing/fp2.h"

namespace maabe::pairing {

/// Runs fn(0..n-1) in any order, possibly on several threads (the
/// engine passes its pool); an empty one runs the items inline. Table
/// entries are canonical, so they do not depend on the schedule.
using ParallelFor = std::function<void(size_t n, const std::function<void(size_t)>& fn)>;

/// Window table for a fixed point of E(F_q).
class G1FixedBase {
 public:
  /// base must not be infinity; `exp_bits` is the maximum exponent
  /// length (the group order's bit length). With `parallel`, the rows
  /// are built in groups, each normalized with its own inversion.
  G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits,
              int window_bits = 4, const ParallelFor& parallel = {});

  /// base^k (written multiplicatively) for 0 <= k < 2^exp_bits.
  AffinePoint pow(const math::Bignum& k) const;

  int digits() const { return digits_; }
  int window_bits() const { return window_bits_; }
  /// T[d][j] = base * (j << (w*d)); the j = 0 entries are infinity.
  const AffinePoint& entry(int d, int j) const {
    return table_[static_cast<size_t>(d) * (size_t{1} << window_bits_) + j];
  }

 private:
  const CurveCtx& curve_;
  int window_bits_;
  int digits_;
  /// T[d][j] stored row-major at d * 2^w + j.
  std::vector<AffinePoint> table_;
};

/// Window table for a fixed element of the order-r subgroup of F_{q^2}.
class GtFixedBase {
 public:
  /// With `parallel`, the rows are filled concurrently once the digit
  /// bases are known.
  GtFixedBase(const Fp2Ctx& fq2, const Fp2& base, int exp_bits, int window_bits = 4,
              const ParallelFor& parallel = {});

  Fp2 pow(const math::Bignum& k) const;

 private:
  const Fp2Ctx& fq2_;
  int window_bits_;
  int digits_;
  std::vector<std::vector<Fp2>> table_;
};

}  // namespace maabe::pairing
