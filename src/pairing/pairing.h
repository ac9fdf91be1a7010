// Modified Tate pairing on the type-A curve.
//
//   e(P, Q) = f_{r,P}(phi(Q))^((q^2-1)/r),  phi(x, y) = (-x, i*y)
//
// Implementation notes:
//  * Miller loop in Jacobian coordinates; lines are scaled by arbitrary
//    F_q factors (killed by the final exponentiation), which removes all
//    inversions from the loop.
//  * Denominator elimination: vertical lines evaluate inside F_q because
//    x(phi(Q)) = -x_Q is in F_q, so they are skipped entirely.
//  * Final exponentiation splits as (q^2-1)/r = (q-1) * h:
//    f^(q-1) = conj(f) * f^{-1} (one Fp2 inversion), then
//    square-and-multiply by the cofactor h = (q+1)/r using cyclotomic
//    squarings (f^(q-1) has norm 1).
//  * Multi-pairing: miller_loop() exposes the unreduced Miller value so
//    products of pairings can be folded in F_{q^2} and pay ONE shared
//    final exponentiation. Because x -> x^((q^2-1)/r) is a group
//    homomorphism of F_{q^2}^* and the arithmetic is exact, the result
//    is bit-for-bit the same as multiplying individually reduced
//    pairings.
//  * PairingPrecomp caches the Miller-loop line coefficients of a fixed
//    first argument (the pairing analogue of G1FixedBase): evaluation
//    against a fresh Q then costs two F_q multiplications per line
//    instead of re-deriving tangents/chords and advancing the Jacobian
//    accumulator.
#pragma once

#include <cstdint>
#include <vector>

#include "pairing/curve.h"
#include "pairing/fp2.h"
#include "pairing/params.h"

namespace maabe::pairing {

class PairingCtx;

/// Precomputed Miller-loop line coefficients for a fixed first pairing
/// argument P. Every line the loop multiplies in evaluates at phi(Q) as
///   l(phi(Q)) = (c0 * x_q + c1) + (c2 * y_q) * i
/// with c0..c2 depending only on P (and the loop's Jacobian state,
/// which P determines). miller() replays the recorded schedule and is
/// bit-identical to PairingCtx::miller_loop(P, Q) — distributing the
/// line evaluation over the cached coefficients is exact in modular
/// arithmetic. Immutable after construction; safe for concurrent use.
class PairingPrecomp {
 public:
  PairingPrecomp(const PairingCtx& ctx, const AffinePoint& p);

  /// True when the fixed argument was the point at infinity; miller()
  /// then always returns 1.
  bool base_is_infinity() const { return inf_; }
  size_t line_count() const { return lines_.size(); }

  /// The unreduced Miller value f_{r,P}(phi(Q)).
  Fp2 miller(const AffinePoint& q) const;

 private:
  struct Line {
    Fp c0, c1, c2;
    uint32_t sqrs_before;  ///< f-squarings preceding this line multiply
  };
  const PairingCtx* ctx_;
  bool inf_ = false;
  std::vector<Line> lines_;
  uint32_t trailing_sqrs_ = 0;
};

/// Bundles every context needed to evaluate pairings on one parameter
/// set. Cheap to construct; Group (group.h) owns one per instance.
class PairingCtx {
 public:
  explicit PairingCtx(const TypeAParams& params);

  const TypeAParams& params() const { return params_; }
  const FpCtx& fq() const { return fq_; }
  const Fp2Ctx& fq2() const { return fq2_; }
  const CurveCtx& curve() const { return curve_; }

  /// e(P, Q); symmetric and bilinear on the order-r subgroup. Returns 1
  /// if either input is the point at infinity.
  Fp2 pair(const AffinePoint& p, const AffinePoint& q) const;

  /// f_{r,P}(phi(Q)) — the Miller loop only, no final exponentiation.
  /// Returns 1 if either input is the point at infinity (so the value
  /// is always safe to fold into a shared product).
  Fp2 miller_loop(const AffinePoint& p, const AffinePoint& q) const;

  /// Maps an arbitrary f in F_{q^2}^* to the order-r target group.
  Fp2 final_exponentiation(const Fp2& f) const;

 private:
  TypeAParams params_;
  FpCtx fq_;
  Fp2Ctx fq2_;
  CurveCtx curve_;
};

}  // namespace maabe::pairing
