#include "pairing/pairing.h"

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

PairingCtx::PairingCtx(const TypeAParams& params)
    : params_(params), fq_(params.q), fq2_(fq_), curve_(fq_) {}

namespace {

// Line through T (Jacobian, = tangent when doubling) evaluated at
// phi(Q) = (-x_q, i*y_q), scaled by an arbitrary F_q constant.
//
// Tangent at T: l = 2YZ^3*y - 2Y^2 - (3X^2 + Z^4)(Z^2*x - X), so at
// phi(Q):  real = M*(Z^2*x_q + X) - 2Y^2,  imag = 2YZ^3 * y_q,
// with M = 3X^2 + Z^4 (curve coefficient a = 1).
Fp2 tangent_line(const FpCtx& fq, const JacPoint& t, const AffinePoint& q) {
  const Fp z2 = fq.sqr(t.z);
  const Fp x2 = fq.sqr(t.x);
  const Fp m = fq.add(fq.add(fq.dbl(x2), x2), fq.sqr(z2));
  const Fp real =
      fq.sub(fq.mul(m, fq.add(fq.mul(z2, q.x), t.x)), fq.dbl(fq.sqr(t.y)));
  const Fp imag = fq.mul(fq.dbl(fq.mul(t.y, fq.mul(z2, t.z))), q.y);
  return {real, imag};
}

// Line through T (Jacobian) and affine P evaluated at phi(Q), scaled by
// an arbitrary F_q constant:
//   real = R*(x_q + x_p) - H*Z*y_p,   imag = H*Z*y_q,
// with H = x_p*Z^2 - X, R = y_p*Z^3 - Y (chord slope numerator pieces).
Fp2 chord_line(const FpCtx& fq, const JacPoint& t, const AffinePoint& p,
               const AffinePoint& q, const Fp& hh, const Fp& rr) {
  const Fp hz = fq.mul(hh, t.z);
  const Fp real = fq.sub(fq.mul(rr, fq.add(q.x, p.x)), fq.mul(hz, p.y));
  const Fp imag = fq.mul(hz, q.y);
  return {real, imag};
}

}  // namespace

Fp2 PairingCtx::final_exponentiation(const Fp2& f) const {
  if (fq2_.is_zero(f)) throw MathError("final_exponentiation: zero input");
  // f^(q-1) = conj(f) / f.
  const Fp2 f1 = fq2_.mul(fq2_.conj(f), fq2_.inv(f));
  // f1 has norm 1 (f1^(q+1) = f^(q^2-1) = 1 by Fermat), so the hard
  // part h = (q+1)/r runs on cyclotomic squarings — the same bits as a
  // generic pow at roughly half the base-field multiplies per square.
  return fq2_.pow_cyclotomic(f1, params_.h);
}

Fp2 PairingCtx::miller_loop(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return fq2_.one();

  Fp2 f = fq2_.one();
  JacPoint t = curve_.to_jac(p);
  const Bignum& r = params_.r;

  for (int i = r.bit_length() - 2; i >= 0; --i) {
    f = fq2_.sqr(f);
    if (!t.z.is_zero()) {
      const Fp2 line = tangent_line(fq_, t, q);
      f = fq2_.mul(f, line);
      t = curve_.jac_dbl(t);
    }
    if (r.bit(i) && !t.z.is_zero()) {
      // Mixed addition, reusing H and R for the line.
      const Fp z2 = fq_.sqr(t.z);
      const Fp hh = fq_.sub(fq_.mul(p.x, z2), t.x);
      const Fp rr = fq_.sub(fq_.mul(p.y, fq_.mul(z2, t.z)), t.y);
      if (hh.is_zero()) {
        if (rr.is_zero()) {
          // T == P: tangent case (cannot occur for points of prime order
          // r > 2 before the last step, but handle it for robustness).
          f = fq2_.mul(f, tangent_line(fq_, t, q));
          t = curve_.jac_dbl(t);
        } else {
          // T == -P: vertical line lies in F_q, contributes 1.
          t = {fq_.one(), fq_.one(), fq_.zero()};
        }
      } else {
        f = fq2_.mul(f, chord_line(fq_, t, p, q, hh, rr));
        const Fp h2 = fq_.sqr(hh);
        const Fp h3 = fq_.mul(hh, h2);
        const Fp v = fq_.mul(t.x, h2);
        const Fp xr = fq_.sub(fq_.sub(fq_.sqr(rr), h3), fq_.dbl(v));
        const Fp yr = fq_.sub(fq_.mul(rr, fq_.sub(v, xr)), fq_.mul(t.y, h3));
        const Fp zr = fq_.mul(t.z, hh);
        t = {xr, yr, zr};
      }
    }
  }
  return f;
}

Fp2 PairingCtx::pair(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return fq2_.one();
  return final_exponentiation(miller_loop(p, q));
}

// ---------------------------------------------------------- precomp --

PairingPrecomp::PairingPrecomp(const PairingCtx& ctx, const AffinePoint& p)
    : ctx_(&ctx) {
  if (p.inf) {
    inf_ = true;
    return;
  }
  // Replay miller_loop(p, ·)'s exact control flow — which depends only
  // on P and r — recording each line's Q-independent coefficients. The
  // on-line tangent evaluates as M*(Z^2*x_q + X) - 2Y^2; distributing
  // gives c0 = M*Z^2, c1 = M*X - 2Y^2, and the chord analogously —
  // exact modular arithmetic keeps the distributed form bit-identical.
  const FpCtx& fq = ctx.fq();
  const CurveCtx& curve = ctx.curve();
  JacPoint t = curve.to_jac(p);
  const Bignum& r = ctx.params().r;
  uint32_t pending = 0;

  const auto push_tangent = [&] {
    const Fp z2 = fq.sqr(t.z);
    const Fp x2 = fq.sqr(t.x);
    const Fp m = fq.add(fq.add(fq.dbl(x2), x2), fq.sqr(z2));
    lines_.push_back({fq.mul(m, z2),
                      fq.sub(fq.mul(m, t.x), fq.dbl(fq.sqr(t.y))),
                      fq.dbl(fq.mul(t.y, fq.mul(z2, t.z))), pending});
    pending = 0;
  };

  for (int i = r.bit_length() - 2; i >= 0; --i) {
    ++pending;  // the f = f^2 at the top of each iteration
    if (!t.z.is_zero()) {
      push_tangent();
      t = curve.jac_dbl(t);
    }
    if (r.bit(i) && !t.z.is_zero()) {
      const Fp z2 = fq.sqr(t.z);
      const Fp hh = fq.sub(fq.mul(p.x, z2), t.x);
      const Fp rr = fq.sub(fq.mul(p.y, fq.mul(z2, t.z)), t.y);
      if (hh.is_zero()) {
        if (rr.is_zero()) {
          push_tangent();
          t = curve.jac_dbl(t);
        } else {
          t = {fq.one(), fq.one(), fq.zero()};
        }
      } else {
        const Fp hz = fq.mul(hh, t.z);
        lines_.push_back({rr, fq.sub(fq.mul(rr, p.x), fq.mul(hz, p.y)), hz,
                          pending});
        pending = 0;
        const Fp h2 = fq.sqr(hh);
        const Fp h3 = fq.mul(hh, h2);
        const Fp v = fq.mul(t.x, h2);
        const Fp xr = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
        const Fp yr = fq.sub(fq.mul(rr, fq.sub(v, xr)), fq.mul(t.y, h3));
        const Fp zr = fq.mul(t.z, hh);
        t = {xr, yr, zr};
      }
    }
  }
  trailing_sqrs_ = pending;
}

Fp2 PairingPrecomp::miller(const AffinePoint& q) const {
  const Fp2Ctx& fq2 = ctx_->fq2();
  if (inf_ || q.inf) return fq2.one();
  const FpCtx& fq = ctx_->fq();
  Fp2 f = fq2.one();
  for (const Line& l : lines_) {
    for (uint32_t s = 0; s < l.sqrs_before; ++s) f = fq2.sqr(f);
    f = fq2.mul(f, {fq.add(fq.mul(l.c0, q.x), l.c1), fq.mul(l.c2, q.y)});
  }
  for (uint32_t s = 0; s < trailing_sqrs_; ++s) f = fq2.sqr(f);
  return f;
}

}  // namespace maabe::pairing
