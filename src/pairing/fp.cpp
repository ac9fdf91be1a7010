#include "pairing/fp.h"

#include <vector>

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

namespace {

using u128 = unsigned __int128;

// ---------------------------------------------------------------------
// Limb kernels, one instantiation per limb count N. Every loop bound is
// a compile-time constant and the loops are unrolled. Each kernel reads
// its inputs before storing the matching output limbs, so r may alias
// a or b.
//
// Carries travel as separate 64-bit words through add-with-overflow
// builtins rather than as 128-bit accumulators: GCC keeps the former in
// registers but spills unrolled chains of the latter to the stack
// (measured 1.6x slower for the 8-limb product).
// ---------------------------------------------------------------------

/// Returns the low word of a*b + t + carry and leaves the high word in
/// carry. The sum is below 2^128, so the high word cannot overflow.
inline uint64_t mac(uint64_t a, uint64_t b, uint64_t t, uint64_t& carry) {
  const u128 pr = u128(a) * b;
  uint64_t s1, s2;
  const bool c1 = __builtin_add_overflow(static_cast<uint64_t>(pr), t, &s1);
  const bool c2 = __builtin_add_overflow(s1, carry, &s2);
  carry = static_cast<uint64_t>(pr >> 64) + c1 + c2;
  return s2;
}

/// Returns x + y + carry; carry (0 or 1) becomes the carry out.
inline uint64_t adc(uint64_t x, uint64_t y, uint64_t& carry) {
  uint64_t s1, s2;
  const bool c1 = __builtin_add_overflow(x, y, &s1);
  const bool c2 = __builtin_add_overflow(s1, carry, &s2);
  carry = c1 | c2;
  return s2;
}

/// Returns x - y - borrow; borrow (0 or 1) becomes the borrow out.
inline uint64_t sbb(uint64_t x, uint64_t y, uint64_t& borrow) {
  uint64_t d1, d2;
  const bool b1 = __builtin_sub_overflow(x, y, &d1);
  const bool b2 = __builtin_sub_overflow(d1, borrow, &d2);
  borrow = b1 | b2;
  return d2;
}

/// r = t - p if (hi:t) >= p, else t; requires (hi:t) < 2p. Branch-free
/// select on the borrow.
template <int N>
inline void reduce_once(uint64_t* r, const uint64_t* t, uint64_t hi, const uint64_t* p) {
  uint64_t d[N];
  uint64_t borrow = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) d[j] = sbb(t[j], p[j], borrow);
  // Keep t only when it is below p: no carry word and the subtraction
  // borrowed.
  const uint64_t keep = 0 - static_cast<uint64_t>((hi == 0) & (borrow == 1));
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) r[j] = (t[j] & keep) | (d[j] & ~keep);
}

template <int N>
void k_add(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p) {
  uint64_t t[N];
  uint64_t carry = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) t[j] = adc(a[j], b[j], carry);
  reduce_once<N>(r, t, carry, p);
}

template <int N>
void k_sub(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p) {
  uint64_t t[N];
  uint64_t borrow = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) t[j] = sbb(a[j], b[j], borrow);
  // On borrow the wrapped difference plus p is the reduced result.
  const uint64_t mask = 0 - borrow;
  uint64_t carry = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) r[j] = adc(t[j], p[j] & mask, carry);
}

template <int N>
void k_neg(uint64_t* r, const uint64_t* a, const uint64_t* p) {
  uint64_t nz = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) nz |= a[j];
  const uint64_t mask = 0 - static_cast<uint64_t>(nz != 0);  // -0 stays 0
  uint64_t borrow = 0;
#pragma GCC unroll 16
  for (int j = 0; j < N; ++j) r[j] = sbb(p[j], a[j], borrow) & mask;
}

/// CIOS (coarsely integrated operand scanning) Montgomery product:
/// a*b*R^-1 mod p for a, b < p. The running value stays below 2p, so a
/// carry word t[N] plus one conditional subtraction suffice even when
/// the modulus uses the top bit of its last limb (both curves do).
template <int N>
void k_mul(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p,
           uint64_t n0) {
  uint64_t t[N + 2] = {};
#pragma GCC unroll 16
  for (int i = 0; i < N; ++i) {
    uint64_t c = 0;
#pragma GCC unroll 16
    for (int j = 0; j < N; ++j) t[j] = mac(a[i], b[j], t[j], c);
    uint64_t cf = 0;
    t[N] = adc(t[N], c, cf);
    t[N + 1] = cf;

    // t = (t + m*p) / 2^64, with m chosen to clear the low word.
    const uint64_t m = t[0] * n0;
    c = 0;
    (void)mac(m, p[0], t[0], c);
#pragma GCC unroll 16
    for (int j = 1; j < N; ++j) t[j - 1] = mac(m, p[j], t[j], c);
    cf = 0;
    t[N - 1] = adc(t[N], c, cf);
    t[N] = t[N + 1] + cf;
  }
  reduce_once<N>(r, t, t[N], p);
}

/// SOS (separated operand scanning) Montgomery square: the cross
/// products a_i*a_j (i < j) once, doubled by a shift, plus the diagonal,
/// then N reduction passes. About N^2/2 fewer 64x64 products than
/// k_mul(a, a), same canonical result.
template <int N>
void k_sqr(uint64_t* r, const uint64_t* a, const uint64_t* p, uint64_t n0) {
  uint64_t t[2 * N] = {};
#pragma GCC unroll 16
  for (int i = 0; i < N; ++i) {
    uint64_t c = 0;
#pragma GCC unroll 16
    for (int j = i + 1; j < N; ++j) t[i + j] = mac(a[i], a[j], t[i + j], c);
    t[i + N] = c;
  }
  // Double the cross products (they sum below a^2 < 2^(128N), so the
  // shift never leaves 2N limbs), then add the diagonal squares.
  uint64_t top = 0;
#pragma GCC unroll 16
  for (int k = 0; k < 2 * N; ++k) {
    const uint64_t v = t[k];
    t[k] = (v << 1) | top;
    top = v >> 63;
  }
  uint64_t c = 0;
#pragma GCC unroll 16
  for (int i = 0; i < N; ++i) {
    const u128 d = u128(a[i]) * a[i];
    t[2 * i] = adc(t[2 * i], static_cast<uint64_t>(d), c);
    t[2 * i + 1] = adc(t[2 * i + 1], static_cast<uint64_t>(d >> 64), c);
  }
  // Montgomery reduction: pass i clears limb i; its carry lands in limb
  // i + N, whose own overflow is carried into the next pass.
  uint64_t pending = 0;
#pragma GCC unroll 16
  for (int i = 0; i < N; ++i) {
    const uint64_t m = t[i] * n0;
    uint64_t cc = 0;
#pragma GCC unroll 16
    for (int j = 0; j < N; ++j) t[i + j] = mac(m, p[j], t[i + j], cc);
    t[i + N] = adc(t[i + N], cc, pending);  // pending: carry in and out
  }
  reduce_once<N>(r, t + N, pending, p);
}

// Helpers for the plain binary extended gcd below.
template <int N>
inline bool is_one(const uint64_t* x) {
  uint64_t hi = 0;
  for (int j = 1; j < N; ++j) hi |= x[j];
  return x[0] == 1 && hi == 0;
}

template <int N>
inline int cmp(const uint64_t* x, const uint64_t* y) {
  for (int j = N - 1; j >= 0; --j) {
    if (x[j] != y[j]) return x[j] > y[j] ? 1 : -1;
  }
  return 0;
}

/// x -= y in place (requires x >= y).
template <int N>
inline void sub_in_place(uint64_t* x, const uint64_t* y) {
  uint64_t borrow = 0;
  for (int j = 0; j < N; ++j) {
    const u128 s = u128(x[j]) - y[j] - borrow;
    x[j] = static_cast<uint64_t>(s);
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
}

/// x >>= s for 0 < s < 64.
template <int N>
inline void shr_in_place(uint64_t* x, int s) {
  for (int j = 0; j + 1 < N; ++j) x[j] = (x[j] >> s) | (x[j + 1] << (64 - s));
  x[N - 1] >>= s;
}

/// x = x / 2 mod p for x < p (p odd): (x + p) / 2 when x is odd.
template <int N>
inline void half_mod(uint64_t* x, const uint64_t* p) {
  const uint64_t mask = 0 - (x[0] & 1);
  uint64_t carry = 0;
  for (int j = 0; j < N; ++j) {
    const u128 s = u128(x[j]) + (p[j] & mask) + carry;
    x[j] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  for (int j = 0; j + 1 < N; ++j) x[j] = (x[j] >> 1) | (x[j + 1] << 63);
  x[N - 1] = (x[N - 1] >> 1) | (carry << 63);
}

/// Binary extended gcd for an odd modulus p (HAC 14.61): keeps
/// x1*a = u and x2*a = v (mod p) while driving u or v to 1. Trailing
/// zeros of u and v come off a word at a time; x1/x2 halve mod p once per
/// bit. a must be in [1, p). Returns false when gcd(a, p) > 1, which a
/// prime p never produces.
template <int N>
bool k_inv(uint64_t* r, const uint64_t* a, const uint64_t* p) {
  uint64_t u[N], v[N], x1[N] = {1}, x2[N] = {};
  for (int j = 0; j < N; ++j) {
    u[j] = a[j];
    v[j] = p[j];
  }
  while (!is_one<N>(u) && !is_one<N>(v)) {
    // u and v are never zero inside the loop (the subtraction below
    // only runs on unequal values), so each inner loop terminates.
    while ((u[0] & 1) == 0) {
      const int s = u[0] == 0 ? 63 : __builtin_ctzll(u[0]);
      shr_in_place<N>(u, s);
      for (int k = 0; k < s; ++k) half_mod<N>(x1, p);
    }
    while ((v[0] & 1) == 0) {
      const int s = v[0] == 0 ? 63 : __builtin_ctzll(v[0]);
      shr_in_place<N>(v, s);
      for (int k = 0; k < s; ++k) half_mod<N>(x2, p);
    }
    const int c = cmp<N>(u, v);
    if (c == 0) return false;  // u == v != 1 divides both a and p
    if (c > 0) {
      sub_in_place<N>(u, v);
      k_sub<N>(x1, x1, x2, p);
    } else {
      sub_in_place<N>(v, u);
      k_sub<N>(x2, x2, x1, p);
    }
  }
  const uint64_t* out = is_one<N>(u) ? x1 : x2;
  for (int j = 0; j < N; ++j) r[j] = out[j];
  return true;
}

template <int N>
constexpr FpCtx::Kernels kKernels = {&k_add<N>, &k_sub<N>, &k_neg<N>,
                                     &k_mul<N>, &k_sqr<N>, &k_inv<N>};

const FpCtx::Kernels* kernels_for(int n) {
  switch (n) {
    case 1: return &kKernels<1>;
    case 2: return &kKernels<2>;
    case 3: return &kKernels<3>;
    case 4: return &kKernels<4>;
    case 5: return &kKernels<5>;
    case 6: return &kKernels<6>;
    case 7: return &kKernels<7>;
    case 8: return &kKernels<8>;
    default: throw MathError("FpCtx: field wider than 512 bits");
  }
}

/// Limbs of a value < 2^(64 * Fp::kMaxLimbs).
Fp limbs_of(const Bignum& v) {
  if (v.limb_count() > Fp::kMaxLimbs) throw MathError("FpCtx: value wider than 512 bits");
  Fp out;
  for (int j = 0; j < Fp::kMaxLimbs; ++j) out.l[j] = v.limb(j);
  return out;
}

}  // namespace

FpCtx::FpCtx(const Bignum& p) : p_big_(p) {
  if (!p.is_odd() || p.bit_length() < 2) throw MathError("FpCtx: modulus must be odd and >= 3");
  n_ = p.limb_count();
  k_ = kernels_for(n_);
  byte_len_ = (p.bit_length() + 7) / 8;
  p_ = limbs_of(p).l;

  // n0_ = -p^{-1} mod 2^64 via Newton-Hensel lifting.
  uint64_t x = p_[0];  // 3-bit correct start (x*p == 1 mod 8 for odd p)
  for (int i = 0; i < 6; ++i) x *= 2 - p_[0] * x;
  n0_ = ~x + 1;

  // R^k mod p for k = 1, 2, 3, with R = 2^(64 n).
  const Bignum r = Bignum::mod(Bignum::shl(Bignum::from_u64(1), 64 * n_), p);
  const Bignum r2 = Bignum::mod_mul(r, r, p);
  one_ = limbs_of(r);
  r2_ = limbs_of(r2);
  r3_ = limbs_of(Bignum::mod_mul(r2, r, p));

  const Bignum one = Bignum::from_u64(1);
  qr_exp_ = Bignum::shr(Bignum::sub(p, one), 1);
  sqrt_exp_ = Bignum::shr(Bignum::add(p, one), 2);
}

Fp FpCtx::enc(const Bignum& plain) const {
  if (Bignum::cmp(plain, p_big_) >= 0) throw MathError("FpCtx::enc: value not reduced");
  return mul(limbs_of(plain), r2_);
}

Fp FpCtx::to_plain(const Fp& m) const {
  Fp unit;  // the plain integer 1: a Montgomery product with it divides by R
  unit.l[0] = 1;
  return mul(m, unit);
}

Bignum FpCtx::dec(const Fp& m) const {
  return Bignum::from_limbs_le(to_plain(m).l.data(), n_);
}

Fp FpCtx::inv(const Fp& a) const {
  if (a.is_zero()) throw MathError("FpCtx::inv: zero is not invertible");
  // The gcd inverts the Montgomery value a*R as a plain integer, giving
  // a^-1 * R^-1; one Montgomery product with R^3 lifts that to a^-1 * R.
  Fp plain_inv;
  if (!k_->inv(plain_inv.l.data(), a.l.data(), p_.data()))
    throw MathError("FpCtx::inv: value shares a factor with the modulus");
  return mul(plain_inv, r3_);
}

void FpCtx::batch_inv(std::span<Fp> xs) const {
  // prefix[i] = product of the nonzero xs[0..i).
  std::vector<Fp> prefix(xs.size());
  Fp acc = one_;
  bool any = false;
  for (size_t i = 0; i < xs.size(); ++i) {
    prefix[i] = acc;
    if (xs[i].is_zero()) continue;
    acc = mul(acc, xs[i]);
    any = true;
  }
  if (!any) return;
  Fp acc_inv = inv(acc);  // = product of all nonzero xs, inverted
  for (size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    const Fp xi_inv = mul(acc_inv, prefix[i]);
    acc_inv = mul(acc_inv, xs[i]);
    xs[i] = xi_inv;
  }
}

Fp FpCtx::pow(const Fp& base, const Bignum& exp) const {
  // Left-to-right over 4-bit digits of the exponent: 4 squarings and at
  // most one multiply by base^digit per digit.
  constexpr int kW = 4;
  std::array<Fp, 1 << kW> powers;
  powers[0] = one_;
  for (size_t j = 1; j < powers.size(); ++j) powers[j] = mul(powers[j - 1], base);
  Fp result = one_;
  const int digits = (exp.bit_length() + kW - 1) / kW;
  for (int d = digits - 1; d >= 0; --d) {
    if (d != digits - 1) {
      for (int s = 0; s < kW; ++s) result = sqr(result);
    }
    int digit = 0;
    for (int b = kW - 1; b >= 0; --b) digit = (digit << 1) | (exp.bit(d * kW + b) ? 1 : 0);
    if (digit != 0) result = mul(result, powers[digit]);
  }
  return result;
}

bool FpCtx::is_odd(const Fp& a) const {
  return (to_plain(a).l[0] & 1) != 0;
}

bool FpCtx::is_qr(const Fp& a) const {
  if (a.is_zero()) return true;
  return pow(a, qr_exp_) == one_;
}

Fp FpCtx::sqrt(const Fp& a) const {
  Fp root;
  if (!try_sqrt(a, &root)) throw MathError("FpCtx::sqrt: not a quadratic residue");
  return root;
}

bool FpCtx::try_sqrt(const Fp& a, Fp* root) const {
  // For p = 3 (mod 4), a^((p+1)/4) squares back to a exactly when a is
  // a residue (zero included).
  const Fp r = pow(a, sqrt_exp_);
  if (sqr(r) != a) return false;
  *root = r;
  return true;
}

Fp FpCtx::random(crypto::Drbg& rng) const { return enc(rng.below(p_big_)); }

Bytes FpCtx::to_bytes(const Fp& mont_form) const {
  const Fp plain = to_plain(mont_form);
  Bytes out(byte_len_);
  for (size_t k = 0; k < byte_len_; ++k)
    out[byte_len_ - 1 - k] = static_cast<uint8_t>(plain.l[k / 8] >> (8 * (k % 8)));
  return out;
}

Fp FpCtx::from_bytes(ByteView data) const {
  if (data.size() != byte_len_) throw WireError("FpCtx::from_bytes: bad length");
  Fp plain;
  for (size_t k = 0; k < byte_len_; ++k)
    plain.l[k / 8] |= uint64_t(data[byte_len_ - 1 - k]) << (8 * (k % 8));
  // Reduced iff plain - p borrows.
  uint64_t borrow = 0;
  for (int j = 0; j < n_; ++j) {
    const u128 s = u128(plain.l[j]) - p_[j] - borrow;
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
  if (borrow == 0) throw WireError("FpCtx::from_bytes: value exceeds modulus");
  return mul(plain, r2_);
}

}  // namespace maabe::pairing
