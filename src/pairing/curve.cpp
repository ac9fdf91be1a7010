#include "pairing/curve.h"

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

bool CurveCtx::eq(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return p.inf == q.inf;
  return p.x == q.x && p.y == q.y;
}

bool CurveCtx::is_on_curve(const AffinePoint& p) const {
  if (p.inf) return true;
  // y^2 == x^3 + x  (curve coefficient a = 1, b = 0).
  const Fp lhs = fq_.sqr(p.y);
  const Fp rhs = fq_.add(fq_.mul(fq_.sqr(p.x), p.x), p.x);
  return lhs == rhs;
}

AffinePoint CurveCtx::neg(const AffinePoint& p) const {
  if (p.inf) return p;
  return {p.x, fq_.neg(p.y), false};
}

JacPoint CurveCtx::to_jac(const AffinePoint& p) const {
  if (p.inf) return {fq_.one(), fq_.one(), fq_.zero()};
  return {p.x, p.y, fq_.one()};
}

AffinePoint CurveCtx::to_affine(const JacPoint& p) const {
  if (p.z.is_zero()) return AffinePoint::infinity();
  const Fp zi = fq_.inv(p.z);
  const Fp zi2 = fq_.sqr(zi);
  return {fq_.mul(p.x, zi2), fq_.mul(p.y, fq_.mul(zi2, zi)), false};
}

std::vector<AffinePoint> CurveCtx::to_affine_batch(const std::vector<JacPoint>& ps) const {
  std::vector<Fp> zi(ps.size());
  for (size_t i = 0; i < ps.size(); ++i) zi[i] = ps[i].z;
  fq_.batch_inv(zi);  // infinity's zero Z stays zero
  std::vector<AffinePoint> out(ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    if (zi[i].is_zero()) continue;  // out[i] is already infinity
    const Fp zi2 = fq_.sqr(zi[i]);
    out[i] = {fq_.mul(ps[i].x, zi2), fq_.mul(ps[i].y, fq_.mul(zi2, zi[i])), false};
  }
  return out;
}

JacPoint CurveCtx::jac_dbl(const JacPoint& p) const {
  if (p.z.is_zero() || p.y.is_zero()) return {fq_.one(), fq_.one(), fq_.zero()};
  // dbl-2007-bl style with a = 1 handled via M = 3X^2 + Z^4.
  const Fp y2 = fq_.sqr(p.y);
  const Fp s = fq_.dbl(fq_.dbl(fq_.mul(p.x, y2)));       // 4XY^2
  const Fp z2 = fq_.sqr(p.z);
  const Fp x2 = fq_.sqr(p.x);
  const Fp m = fq_.add(fq_.add(fq_.dbl(x2), x2), fq_.sqr(z2));  // 3X^2 + Z^4
  const Fp xr = fq_.sub(fq_.sqr(m), fq_.dbl(s));
  const Fp y4 = fq_.sqr(y2);
  const Fp yr = fq_.sub(fq_.mul(m, fq_.sub(s, xr)), fq_.dbl(fq_.dbl(fq_.dbl(y4))));
  const Fp zr = fq_.dbl(fq_.mul(p.y, p.z));
  return {xr, yr, zr};
}

JacPoint CurveCtx::jac_add_mixed(const JacPoint& p, const AffinePoint& q) const {
  if (q.inf) throw MathError("jac_add_mixed: affine operand is infinity");
  if (p.z.is_zero()) return {q.x, q.y, fq_.one()};
  const Fp z2 = fq_.sqr(p.z);
  const Fp u2 = fq_.mul(q.x, z2);
  const Fp s2 = fq_.mul(q.y, fq_.mul(z2, p.z));
  const Fp hh = fq_.sub(u2, p.x);
  const Fp rr = fq_.sub(s2, p.y);
  if (hh.is_zero()) {
    if (rr.is_zero()) return jac_dbl(p);
    return {fq_.one(), fq_.one(), fq_.zero()};  // p == -q
  }
  const Fp h2 = fq_.sqr(hh);
  const Fp h3 = fq_.mul(hh, h2);
  const Fp v = fq_.mul(p.x, h2);
  const Fp xr = fq_.sub(fq_.sub(fq_.sqr(rr), h3), fq_.dbl(v));
  const Fp yr = fq_.sub(fq_.mul(rr, fq_.sub(v, xr)), fq_.mul(p.y, h3));
  const Fp zr = fq_.mul(p.z, hh);
  return {xr, yr, zr};
}

AffinePoint CurveCtx::dbl(const AffinePoint& p) const {
  if (p.inf) return p;
  return to_affine(jac_dbl(to_jac(p)));
}

AffinePoint CurveCtx::add(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf) return q;
  if (q.inf) return p;
  return to_affine(jac_add_mixed(to_jac(p), q));
}

AffinePoint CurveCtx::mul(const AffinePoint& p, const Bignum& k) const {
  if (p.inf || k.is_zero()) return AffinePoint::infinity();
  JacPoint acc{fq_.one(), fq_.one(), fq_.zero()};
  for (int i = k.bit_length() - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (k.bit(i)) acc = jac_add_mixed(acc, p);
  }
  return to_affine(acc);
}

bool CurveCtx::lift_x(const Fp& x, Fp* y) const {
  const Fp rhs = fq_.add(fq_.mul(fq_.sqr(x), x), x);
  return fq_.try_sqrt(rhs, y);
}

}  // namespace maabe::pairing
