// Prime-field context: fixed-width Montgomery arithmetic plus the
// field-level operations the curve and pairing layers need (inversion,
// square roots, serialization, uniform sampling).
//
// Field elements are Fp values: a plain little-endian array of 64-bit
// limbs in Montgomery form (a*R mod p, R = 2^(64*limbs)). The owning
// FpCtx fixes the limb count from the modulus (3 for the 192-bit test
// curve, 8 for the paper's 512-bit field) and runs kernels specialised
// and unrolled for it; limbs above that count stay zero, so == compares
// values. On x86-64 CPUs with ADX and BMI2 the 8-limb multiply runs a
// mulx/adcx/adox kernel instead of the portable one; both give the same
// canonical residues. All operations go through the context
// (context-object style keeps the hot path free of per-element field
// pointers). See DESIGN.md "Field representation" for the reduction
// bound, the kernel dispatch and the inversion choice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/drbg.h"
#include "math/bignum.h"

namespace maabe::pairing {

/// Base-field element in Montgomery form (64 bytes, no heap).
struct Fp {
  /// Widest supported field: 512 bits.
  static constexpr int kMaxLimbs = 8;

  std::array<uint64_t, kMaxLimbs> l{};

  bool is_zero() const {
    uint64_t acc = 0;
    for (uint64_t v : l) acc |= v;
    return acc == 0;
  }
  friend bool operator==(const Fp& x, const Fp& y) = default;
};

class FpCtx {
 public:
  /// Kernel sets a context can run on.
  enum class KernelSet {
    kPortable,  ///< Unrolled C++ for every limb count.
    kAdx,       ///< x86-64 mulx/adcx/adox multiply; 8 limbs, needs ADX and BMI2.
  };

  /// p must be an odd prime of at most 512 bits. Throws MathError for an
  /// even or wider modulus; primality is the caller's (TypeAParams
  /// validates it), and inv() throws where it fails. Runs on the fastest
  /// kernel set this CPU offers for the modulus' limb count.
  explicit FpCtx(const math::Bignum& p);
  /// Same field on a pinned kernel set, so tests and benchmarks can
  /// compare the sets in one process. Throws MathError when
  /// !has_kernel_set(set, limbs).
  FpCtx(const math::Bignum& p, KernelSet set);

  /// True when `set` runs on this CPU for a field of `limbs` limbs.
  static bool has_kernel_set(KernelSet set, int limbs);
  /// "portable" or "adx".
  const char* kernel_name() const { return k_->name; }

  const math::Bignum& modulus() const { return p_big_; }
  size_t byte_length() const { return byte_len_; }
  /// Limbs per element (ceil(bits(p) / 64)).
  int limbs() const { return n_; }

  // Montgomery codec; `plain` must be < p.
  Fp enc(const math::Bignum& plain) const;
  math::Bignum dec(const Fp& m) const;

  // Arithmetic on Montgomery-form elements. Inputs must be reduced
  // (< p, as every FpCtx result is); outputs are reduced.
  Fp add(const Fp& a, const Fp& b) const {
    Fp r;
    k_->add(r.l.data(), a.l.data(), b.l.data(), p_.data());
    return r;
  }
  Fp sub(const Fp& a, const Fp& b) const {
    Fp r;
    k_->sub(r.l.data(), a.l.data(), b.l.data(), p_.data());
    return r;
  }
  Fp neg(const Fp& a) const {
    Fp r;
    k_->neg(r.l.data(), a.l.data(), p_.data());
    return r;
  }
  Fp dbl(const Fp& a) const { return add(a, a); }
  /// CIOS Montgomery product.
  Fp mul(const Fp& a, const Fp& b) const {
    Fp r;
    k_->mul(r.l.data(), a.l.data(), b.l.data(), p_.data(), n0_);
    return r;
  }
  /// mul(a, a): a dedicated square kernel measured slower than the CIOS
  /// multiply (DESIGN.md §17).
  Fp sqr(const Fp& a) const { return mul(a, a); }
  /// The multiply kernel on raw limbs, for kernel-level tests: r may
  /// alias a, b or both.
  void mul_limbs(uint64_t* r, const uint64_t* a, const uint64_t* b) const {
    k_->mul(r, a, b, p_.data(), n0_);
  }
  /// Limb-native binary extended gcd. Throws MathError on zero.
  Fp inv(const Fp& a) const;
  /// Montgomery's trick: replaces every nonzero xs[i] by its inverse
  /// with one inv() and 3 multiplications per element; zeros stay zero.
  void batch_inv(std::span<Fp> xs) const;
  /// base^exp with exp a plain (non-Montgomery) integer (4-bit fixed
  /// window).
  Fp pow(const Fp& base, const math::Bignum& exp) const;

  const Fp& one() const { return one_; }
  Fp zero() const { return Fp{}; }

  /// Parity of the plain (non-Montgomery) value — the sign bit of the
  /// compressed point encoding.
  bool is_odd(const Fp& a) const;

  /// Quadratic-residue test via Euler's criterion (zero counts as a
  /// residue).
  bool is_qr(const Fp& a) const;

  /// Square root for p = 3 (mod 4): a^((p+1)/4). Throws MathError if `a`
  /// is a non-residue.
  Fp sqrt(const Fp& a) const;
  /// sqrt() that reports a non-residue by returning false: one
  /// exponentiation decides residuosity and yields the root.
  bool try_sqrt(const Fp& a, Fp* root) const;

  /// Uniform field element (Montgomery form).
  Fp random(crypto::Drbg& rng) const;

  /// Fixed-width big-endian serialization of the *plain* value.
  Bytes to_bytes(const Fp& mont_form) const;
  /// Throws WireError on a bad length or a value >= p.
  Fp from_bytes(ByteView data) const;

  /// Kernel table for one limb count and kernel set (see fp.cpp).
  struct Kernels {
    const char* name;
    void (*add)(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p);
    void (*sub)(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p);
    void (*neg)(uint64_t* r, const uint64_t* a, const uint64_t* p);
    void (*mul)(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* p,
                uint64_t n0);
    /// Plain (non-Montgomery) inverse of a nonzero a < p; false when
    /// none exists (p not prime).
    bool (*inv)(uint64_t* r, const uint64_t* a, const uint64_t* p);
  };

 private:
  /// The plain value's limbs (m * R^-1).
  Fp to_plain(const Fp& m) const;

  const Kernels* k_ = nullptr;
  std::array<uint64_t, Fp::kMaxLimbs> p_{};
  uint64_t n0_ = 0;  // -p^{-1} mod 2^64
  int n_ = 0;
  size_t byte_len_ = 0;
  math::Bignum p_big_;
  Fp one_;  // R mod p
  Fp r2_;   // R^2 mod p (to_mont multiplier)
  Fp r3_;   // R^3 mod p (fixes up the plain inverse of a Montgomery value)
  math::Bignum qr_exp_;    // (p-1)/2
  math::Bignum sqrt_exp_;  // (p+1)/4
};

}  // namespace maabe::pairing
