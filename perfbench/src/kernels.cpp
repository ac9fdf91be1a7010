#include "kernels.h"

#include <functional>

#include "abe/scheme.h"
#include "crypto/authenc.h"
#include "crypto/sha256.h"
#include "lsss/parser.h"
#include "math/montgomery.h"
#include "pairing/fixed_base.h"

namespace maabe::perfbench {

namespace {

/// Seconds one call of `fn(r)` takes at the probe's reference speed,
/// with a probe sample on each side.
double scaled_s(SpeedProbe& probe, const std::function<void(size_t)>& fn, size_t r) {
  probe.sample();
  const double t0 = probe.now();
  fn(r);
  const double t1 = probe.now();
  probe.sample();
  return (t1 - t0) * probe.factor(t0, t1);
}

/// Median over `reps` runs of `fn`, each timed as a whole, divided by
/// `per_run` (the operations one run performs), in units of `unit_s`.
KernelTime time_median(SpeedProbe& probe, size_t reps, double per_run, double unit_s,
                       const char* unit, const std::function<void(size_t)>& fn) {
  std::vector<double> v;
  for (size_t r = 0; r < reps; ++r) v.push_back(scaled_s(probe, fn, r) / per_run / unit_s);
  return {median(v), unit, reps};
}

/// Throughput over `bytes` per run, as the median of `reps` runs.
KernelTime mib_per_s(SpeedProbe& probe, size_t reps, size_t bytes,
                     const std::function<void()>& fn) {
  std::vector<double> v;
  for (size_t r = 0; r < reps; ++r) {
    const double s = scaled_s(probe, [&](size_t) { fn(); }, r);
    v.push_back(static_cast<double>(bytes) / (1024.0 * 1024.0) / s);
  }
  return {median(v), "MiB/s", reps};
}

}  // namespace

std::map<std::string, KernelTime> measure_kernels(const pairing::Group& grp,
                                                  const WorkloadSpec& spec, uint64_t seed,
                                                  SpeedProbe& probe) {
  std::map<std::string, KernelTime> out;
  crypto::Drbg rng("perfbench/kernels/" + spec.name + "/" + std::to_string(seed));

  // ---- math: one Montgomery product in the base field.
  const math::MontCtx mont(grp.params().q);
  math::Bignum a = mont.to_mont(rng.below(grp.params().q));
  const math::Bignum b = mont.to_mont(rng.below(grp.params().q));
  constexpr size_t kMuls = 20000;
  out["math.mont_mul_ns"] = time_median(probe, 7, kMuls, 1e-9, "ns", [&](size_t) {
    for (size_t i = 0; i < kMuls; ++i) a = mont.mul(a, b);
  });

  // ---- pairing: variable-base G1 exponentiation, window-table build,
  // Miller loop, final exponentiation, hash to G1.
  std::vector<pairing::G1> bases;
  std::vector<pairing::Zr> exps;
  for (size_t i = 0; i < 9; ++i) {
    bases.push_back(grp.g1_random(rng));
    exps.push_back(grp.zr_nonzero_random(rng));
  }
  pairing::G1 sink_g1 = grp.g1_identity();
  out["pairing.g1_exp_ms"] = time_median(probe, 9, 1, 1e-3, "ms", [&](size_t r) {
    sink_g1 = bases[r].mul(exps[r]);
  });
  out["pairing.g1_table_build_ms"] = time_median(probe, 5, 1, 1e-3, "ms", [&](size_t r) {
    const auto table = grp.g1_precompute(bases[r]);
    (void)table;
  });
  std::vector<pairing::MillerVal> millers(9, grp.miller_one());
  out["pairing.miller_loop_ms"] = time_median(probe, 9, 1, 1e-3, "ms", [&](size_t r) {
    millers[r] = grp.miller(bases[r], bases[(r + 1) % bases.size()]);
  });
  pairing::GT sink_gt = grp.gt_one();
  out["pairing.final_exp_ms"] = time_median(probe, 9, 1, 1e-3, "ms", [&](size_t r) {
    sink_gt = grp.miller_reduce(millers[r]);
  });
  out["pairing.hash_to_g1_ms"] = time_median(probe, 9, 1, 1e-3, "ms", [&](size_t r) {
    sink_g1 = grp.hash_to_g1("perfbench/" + std::to_string(seed) + "/" + std::to_string(r));
  });

  // ---- abe: encrypt and decrypt under the workload's policy shape
  // (policy_width attributes from distinct authorities).
  const abe::OwnerMasterKey mk = abe::owner_gen(grp, "org", rng);
  const abe::OwnerSecretShare share = abe::owner_share(grp, mk);
  const abe::UserPublicKey user = abe::ca_register_user(grp, "kernel-user", rng);
  std::map<std::string, abe::AuthorityPublicKey> authority_pks;
  std::map<std::string, abe::PublicAttributeKey> attribute_pks;
  std::map<std::string, abe::UserSecretKey> user_keys;
  std::string policy;
  for (size_t i = 0; i < spec.policy_width; ++i) {
    const std::string aid = "K" + std::to_string(i);
    const abe::AuthorityVersionKey vk = abe::aa_setup(grp, aid, rng);
    authority_pks.emplace(aid, abe::aa_public_key(grp, vk));
    const abe::PublicAttributeKey pk = abe::aa_attribute_key(grp, vk, "x");
    attribute_pks.emplace("x@" + aid, pk);
    user_keys.emplace(aid, abe::aa_keygen(grp, vk, share, user, {"x"}));
    policy += (policy.empty() ? "" : " AND ") + std::string("x@") + aid;
  }
  const lsss::LsssMatrix matrix = lsss::LsssMatrix::from_policy(lsss::parse_policy(policy));
  const pairing::GT message = grp.gt_random(rng);
  std::vector<abe::Ciphertext> cts;
  out["abe.encrypt_ms"] = time_median(probe, 5, 1, 1e-3, "ms", [&](size_t r) {
    cts.push_back(abe::encrypt(grp, mk, "kernel/" + std::to_string(r), message, matrix,
                               authority_pks, attribute_pks, rng)
                      .ct);
  });
  out["abe.decrypt_ms"] = time_median(probe, 5, 1, 1e-3, "ms", [&](size_t r) {
    sink_gt = abe::decrypt(grp, cts[r], user, user_keys);
  });
  if (!(sink_gt == message)) throw std::runtime_error("kernels: abe round trip failed");

  // ---- crypto: authenc seal/open and SHA-256 on the workload's
  // payload size, repeated to at least 1 MiB per timed run.
  const Bytes key = rng.bytes(crypto::kContentKeySize);
  const Bytes payload = rng.bytes(spec.payload_bytes);
  const Bytes aad = bytes_of("f0/c0.r1");
  const size_t per_run = std::max<size_t>(1, (1u << 20) / spec.payload_bytes);
  const size_t run_bytes = per_run * spec.payload_bytes;
  const Bytes box = crypto::seal(key, payload, aad, rng);
  Bytes sink_bytes;
  out["crypto.seal_mib_s"] = mib_per_s(probe, 7, run_bytes, [&] {
    for (size_t i = 0; i < per_run; ++i) sink_bytes = crypto::seal(key, payload, aad, rng);
  });
  out["crypto.open_mib_s"] = mib_per_s(probe, 7, run_bytes, [&] {
    for (size_t i = 0; i < per_run; ++i) sink_bytes = crypto::open(key, box, aad);
  });
  if (sink_bytes != payload) throw std::runtime_error("kernels: authenc round trip failed");
  out["crypto.sha256_mib_s"] = mib_per_s(probe, 7, run_bytes, [&] {
    for (size_t i = 0; i < per_run; ++i) sink_bytes = crypto::Sha256::digest(payload);
  });
  return out;
}

}  // namespace maabe::perfbench
