#include "pairing/fp.h"

#include <vector>

#include "common/errors.h"

// ---------------------------------------------------------------------
// x86-64 Montgomery multiply for 8 limbs (the paper's 512-bit field),
// selected at run time when the CPU has ADX and BMI2 (DESIGN.md §17).
//
//   void maabe_fp_mul8_adx(uint64_t* r, const uint64_t* a,
//                          const uint64_t* b, const uint64_t* p,
//                          uint64_t n0);
//
// Same contract and same canonical result as k_mul<8>. Straight-line
// CIOS: round i adds b[i]*a to the running value T, then adds m*p with
// m = T[0]*n0 and drops the zeroed low word. Each pass of eight mulx
// products feeds two independent carry chains, adcx for the low words
// (CF) and adox for the high words (OF), so the adds never wait on one
// flag. T lives in a window of ten registers that rotates by one per
// round instead of being shifted. a, p are addressed through rsi, rcx;
// rax/rbx take the mulx halves; n0, b and r sit on the stack. T stays
// below 2p, so its top word is 0 or 1 and one conditional subtraction
// (cmovc on the borrow) finishes. Every input is read before r is
// written, so r may alias a or b. Defined in this translation unit so
// the object keeps the compiler's .note.GNU-stack (no executable stack)
// and the build needs no assembler language.
// ---------------------------------------------------------------------
#if defined(__x86_64__) && defined(__ELF__)
#define MAABE_FP_ADX 1

extern "C" void maabe_fp_mul8_adx(uint64_t* r, const uint64_t* a, const uint64_t* b,
                                  const uint64_t* p, uint64_t n0);

asm(R"(
    .pushsection .text
    .p2align 5
    .type maabe_fp_mul8_adx, @function

# lo += low(rdx * src[off]) on CF, hi += high(rdx * src[off]) on OF.
.macro fp8_mac src, off, lo, hi
    mulx \off(\src), %rax, %rbx
    adcx %rax, \lo
    adox %rbx, \hi
.endm

# t0..t8 += rdx * src[0..7]. Flags must be clear on entry; leaves a
# carry into t8 pending on CF and one out of t8 pending on OF.
.macro fp8_madd src, t0, t1, t2, t3, t4, t5, t6, t7, t8
    fp8_mac \src, 0, \t0, \t1
    fp8_mac \src, 8, \t1, \t2
    fp8_mac \src, 16, \t2, \t3
    fp8_mac \src, 24, \t3, \t4
    fp8_mac \src, 32, \t4, \t5
    fp8_mac \src, 40, \t5, \t6
    fp8_mac \src, 48, \t6, \t7
    fp8_mac \src, 56, \t7, \t8
.endm

# T = (T + m*p) / 2^64 with m = t0 * n0: T spans t0..t9 on entry and
# t1..t9 on exit, below 2p both times, so t9 is 0 or 1.
.macro fp8_reduce t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    mov \t0, %rdx
    imul (%rsp), %rdx
    xor %eax, %eax
    fp8_madd %rcx, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
    mov $0, %eax
    adcx %rax, \t8
    adox %rax, \t9
    adcx %rax, \t9
.endm

# Round 0: T = b[0] * a (rdx = b[0]) on one carry chain, then reduce.
.macro fp8_first t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    mulx (%rsi), \t0, \t1
    mulx 8(%rsi), %rax, \t2
    add %rax, \t1
    mulx 16(%rsi), %rax, \t3
    adc %rax, \t2
    mulx 24(%rsi), %rax, \t4
    adc %rax, \t3
    mulx 32(%rsi), %rax, \t5
    adc %rax, \t4
    mulx 40(%rsi), %rax, \t6
    adc %rax, \t5
    mulx 48(%rsi), %rax, \t7
    adc %rax, \t6
    mulx 56(%rsi), %rax, \t8
    adc %rax, \t7
    adc $0, \t8
    xor \t9, \t9
    fp8_reduce \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
.endm

# Round i > 0 (off = 8i): T += b[i] * a, then reduce. T spans t0..t8
# on entry; both pending carries land in t9.
.macro fp8_round off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    mov 8(%rsp), %rdx
    mov \off(%rdx), %rdx
    xor \t9, \t9
    fp8_madd %rsi, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
    adcx \t9, \t8
    adox \t9, \t9
    adc $0, \t9
    fp8_reduce \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
.endm

# r = T - p if T >= p, else T, for T = top:u7..u0 < 2p. T goes to r
# first; the borrow of T - p then selects it back with cmovc.
.macro fp8_final u0, u1, u2, u3, u4, u5, u6, u7, top
    mov 16(%rsp), %rdx
    mov \u0, (%rdx)
    mov \u1, 8(%rdx)
    mov \u2, 16(%rdx)
    mov \u3, 24(%rdx)
    mov \u4, 32(%rdx)
    mov \u5, 40(%rdx)
    mov \u6, 48(%rdx)
    mov \u7, 56(%rdx)
    sub (%rcx), \u0
    sbb 8(%rcx), \u1
    sbb 16(%rcx), \u2
    sbb 24(%rcx), \u3
    sbb 32(%rcx), \u4
    sbb 40(%rcx), \u5
    sbb 48(%rcx), \u6
    sbb 56(%rcx), \u7
    sbb $0, \top
    cmovc (%rdx), \u0
    cmovc 8(%rdx), \u1
    cmovc 16(%rdx), \u2
    cmovc 24(%rdx), \u3
    cmovc 32(%rdx), \u4
    cmovc 40(%rdx), \u5
    cmovc 48(%rdx), \u6
    cmovc 56(%rdx), \u7
    mov \u0, (%rdx)
    mov \u1, 8(%rdx)
    mov \u2, 16(%rdx)
    mov \u3, 24(%rdx)
    mov \u4, 32(%rdx)
    mov \u5, 40(%rdx)
    mov \u6, 48(%rdx)
    mov \u7, 56(%rdx)
.endm

maabe_fp_mul8_adx:
    endbr64
    push %rbx
    push %rbp
    push %r12
    push %r13
    push %r14
    push %r15
    push %rdi                   # 16(%rsp) = r
    push %rdx                   # 8(%rsp) = b
    push %r8                    # (%rsp) = n0
    mov (%rdx), %rdx
    # The window rdi, rbp, r8..r15 rotates one register per round.
    fp8_first %rdi, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
    fp8_round 8, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rdi
    fp8_round 16, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rdi, %rbp
    fp8_round 24, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rdi, %rbp, %r8
    fp8_round 32, %r10, %r11, %r12, %r13, %r14, %r15, %rdi, %rbp, %r8, %r9
    fp8_round 40, %r11, %r12, %r13, %r14, %r15, %rdi, %rbp, %r8, %r9, %r10
    fp8_round 48, %r12, %r13, %r14, %r15, %rdi, %rbp, %r8, %r9, %r10, %r11
    fp8_round 56, %r13, %r14, %r15, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12
    fp8_final %r14, %r15, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12
    add $24, %rsp
    pop %r15
    pop %r14
    pop %r13
    pop %r12
    pop %rbp
    pop %rbx
    ret
    .size maabe_fp_mul8_adx, .-maabe_fp_mul8_adx
    .popsection
)");
#endif

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
constexpr FpCtx::Kernels kKernels = {"portable", &k_add<N>, &k_sub<N>, &k_neg<N>,
                                     &k_mul<N>, &k_inv<N>};

#if MAABE_FP_ADX
/// The portable 8-limb table with the mulx/adx multiply.
constexpr FpCtx::Kernels kAdx8 = {"adx", &k_add<8>, &k_sub<8>, &k_neg<8>,
                                  &maabe_fp_mul8_adx, &k_inv<8>};
#endif

/// ADX and BMI2 present, checked once per process.
bool cpu_has_adx() {
#if MAABE_FP_ADX
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
  }();
  return has;
#else
  return false;
#endif
}

const FpCtx::Kernels* kernels_for(int n, FpCtx::KernelSet set) {
  if (set == FpCtx::KernelSet::kAdx) {
#if MAABE_FP_ADX
    if (FpCtx::has_kernel_set(set, n)) return &kAdx8;
#endif
    throw MathError("FpCtx: the adx kernels need an 8-limb field and an ADX/BMI2 CPU");
  }
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

bool FpCtx::has_kernel_set(KernelSet set, int limbs) {
  if (limbs < 1 || limbs > Fp::kMaxLimbs) return false;
  return set == KernelSet::kPortable || (limbs == 8 && cpu_has_adx());
}

FpCtx::FpCtx(const Bignum& p)
    : FpCtx(p, has_kernel_set(KernelSet::kAdx, p.limb_count()) ? KernelSet::kAdx
                                                                : KernelSet::kPortable) {}

FpCtx::FpCtx(const Bignum& p, KernelSet set) : p_big_(p) {
  if (!p.is_odd() || p.bit_length() < 2) throw MathError("FpCtx: modulus must be odd and >= 3");
  n_ = p.limb_count();
  k_ = kernels_for(n_, set);
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
