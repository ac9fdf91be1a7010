// Pairing-substrate microbenchmarks — the anchor for every timing claim
// in the table/figure reproductions, plus the Montgomery-vs-plain
// modular-multiplication ablation called out in DESIGN.md and the
// fixed-width field kernels against the generic Bignum MontCtx.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench_common.h"
#include "bench_json.h"
#include "engine/engine.h"
#include "math/montgomery.h"
#include "pairing/fp.h"
#include "pairing/params.h"

namespace maabe::bench {
namespace {

void BM_Pairing(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->pair(p, q));
}

// The multi-pairing kernel's three cost centers, measured separately:
// pair() == miller + reduce; the kernel pays miller per term but reduce
// once per product, and precomputed line tables cut the miller cost for
// repeated first arguments.
void BM_MillerLoop(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller(p, q));
}

void BM_MillerLoop_Precomp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  const auto pre = grp->pair_precompute(p);
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller_with(*pre, q));
}

void BM_FinalExp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto m = grp->miller(grp->g1_random(rng), grp->g1_random(rng));
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller_reduce(m));
}

void BM_G1_Exp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(p.mul(k));
}

void BM_G1_Exp_FixedBase(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->g_pow(k));
}

void BM_GT_Exp_FixedBase(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->egg_pow(k));
}

void BM_GT_Exp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto e = grp->gt_generator();
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(e.pow(k));
}

void BM_GT_Mul(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = grp->gt_random(rng);
  const auto b = grp->gt_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.mul(b));
}

void BM_HashToG1(benchmark::State& state) {
  auto grp = bench_group();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grp->hash_to_g1(std::string("input" + std::to_string(i++))));
  }
}

void BM_HashToZr(benchmark::State& state) {
  auto grp = bench_group();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grp->hash_to_zr(std::string("input" + std::to_string(i++))));
  }
}

// Ablation: Montgomery vs division-based modular multiplication at the
// base-field size. Justifies the substrate design choice.
void BM_FieldMul_Montgomery(benchmark::State& state) {
  auto grp = bench_group();
  const math::MontCtx mont(grp->params().q);
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = mont.to_mont(rng.below(grp->params().q));
  const auto b = mont.to_mont(rng.below(grp->params().q));
  for (auto _ : state) benchmark::DoNotOptimize(mont.mul(a, b));
}

void BM_FieldMul_PlainDivision(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = rng.below(grp->params().q);
  const auto b = rng.below(grp->params().q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Bignum::mod_mul(a, b, grp->params().q));
  }
}

void BM_FieldInverse(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = rng.nonzero_below(grp->params().q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Bignum::mod_inverse(a, grp->params().q));
  }
}

// The fixed-width field layer the pairing stack runs on (pairing::FpCtx):
// CIOS multiply, SOS square, limb-native binary-gcd inversion, and the
// Fermat inversion (a^(q-2) through pow) it was chosen over.
void BM_FieldMul_Fixed(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.random(rng);
  const auto b = fq.random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(fq.mul(a, b));
}

void BM_FieldSqr_Fixed(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(fq.sqr(a));
}

void BM_FieldInverse_Fixed(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.enc(rng.nonzero_below(grp->params().q));
  for (auto _ : state) benchmark::DoNotOptimize(fq.inv(a));
}

void BM_FieldInverse_Fermat(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.enc(rng.nonzero_below(grp->params().q));
  const auto q_minus_2 = math::Bignum::sub(grp->params().q, math::Bignum::from_u64(2));
  for (auto _ : state) benchmark::DoNotOptimize(fq.pow(a, q_minus_2));
}

// One variable-base window table (what the engine builds per new
// PK_UID on enrolment).
void BM_G1_TableBuild(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->g1_precompute(p));
}

BENCHMARK(BM_Pairing)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MillerLoop)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MillerLoop_Precomp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_FinalExp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_G1_Exp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_G1_Exp_FixedBase)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Exp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Exp_FixedBase)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Mul)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_HashToG1)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_HashToZr)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_Montgomery)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_PlainDivision)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldInverse)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_Fixed)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldSqr_Fixed)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldInverse_Fixed)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_FieldInverse_Fermat)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_G1_TableBuild)->Unit(benchmark::kMicrosecond)->MinTime(0.1);

/// Nanoseconds per call of the fixed-width FpCtx::mul and of the retained
/// generic MontCtx::mul at the paper's 512-bit field, timed in this
/// process: rounds alternate between the two kernels and each keeps its
/// fastest round, so host speed drifts cancel in the ratio.
struct FieldKernelTiming {
  double fixed_ns = 0;
  double generic_ns = 0;
};

FieldKernelTiming time_field_kernels() {
  using Clock = std::chrono::steady_clock;
  const math::Bignum& q = pairing::TypeAParams::pbc_a512().q;
  const pairing::FpCtx fq(q);
  const math::MontCtx mont(q);
  crypto::Drbg rng(std::string_view("field-kernels"));
  const math::Bignum a0 = rng.below(q), b0 = rng.below(q);
  pairing::Fp af = fq.enc(a0);
  const pairing::Fp bf = fq.enc(b0);
  math::Bignum ag = mont.to_mont(a0);
  const math::Bignum bg = mont.to_mont(b0);

  constexpr int kMuls = 20000;
  constexpr int kRounds = 9;
  const auto ns_per = [](Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / kMuls;
  };
  FieldKernelTiming best{1e18, 1e18};
  for (int r = 0; r < kRounds; ++r) {
    auto t0 = Clock::now();
    for (int i = 0; i < kMuls; ++i) af = fq.mul(af, bf);
    auto t1 = Clock::now();
    best.fixed_ns = std::min(best.fixed_ns, ns_per(t0, t1));
    t0 = Clock::now();
    for (int i = 0; i < kMuls; ++i) ag = mont.mul(ag, bg);
    t1 = Clock::now();
    best.generic_ns = std::min(best.generic_ns, ns_per(t0, t1));
  }
  // Same chain of products in both representations: a mismatch means the
  // timing compared different work.
  if (fq.dec(af) != mont.from_mont(ag)) {
    std::fprintf(stderr, "field kernels disagree\n");
    std::exit(1);
  }
  return best;
}

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The engine's headline batch: a 16-term pairing product (decrypt's
// shape at l=8, N_A=... — the dominant cost in Fig. 3b), timed on the
// legacy serial path vs the thread pool. Emits BENCH_pairing_micro.json.
void engine_batch_report() {
  using Clock = std::chrono::steady_clock;
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro-batch"));

  constexpr size_t kTerms = 16;
  std::vector<engine::CryptoEngine::PairTerm> terms;
  for (size_t i = 0; i < kTerms; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});

  const int pool_threads = std::max(4, engine::CryptoEngine::default_threads());
  std::unique_ptr<engine::CryptoEngine> serial_eng, pool_eng;

  const auto time_reps = [&](engine::CryptoEngine& eng, int reps) {
    (void)eng.pairing_product(terms);  // warm up (pool spin-up, caches)
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(eng.pairing_product(terms));
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  };

  // The kernel's algorithmic headline, independent of thread count: the
  // legacy pair-then-multiply fold pays one final exponentiation per
  // term, the kernel pays one for the whole product.
  const auto fold_once = [&] {
    pairing::GT acc = grp->gt_one();
    for (const auto& t : terms) acc = acc * grp->pair(t.a, t.b);
    return acc;
  };
  const auto time_fold = [&](int reps) {
    (void)fold_once();
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(fold_once());
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  };
  // Each round repeats the whole measurement on fresh engines (so every
  // round pays the same cache warm-up) and each timing keeps its fastest
  // round: one round of 5 reps lasts only a few milliseconds on the
  // small curve, short enough for one host hiccup to swing it.
  constexpr int kReps = 5;
  constexpr int kRounds = 5;
  double serial_ms = 1e18, pool_ms = 1e18, fold_ms = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    serial_eng = std::make_unique<engine::CryptoEngine>(*grp, 1);
    pool_eng = std::make_unique<engine::CryptoEngine>(*grp, pool_threads);
    serial_ms = std::min(serial_ms, time_reps(*serial_eng, kReps));
    pool_ms = std::min(pool_ms, time_reps(*pool_eng, kReps));
    fold_ms = std::min(fold_ms, time_fold(kReps));
  }
  const double speedup = pool_ms > 0 ? serial_ms / pool_ms : 0.0;
  const double kernel_ms = serial_ms;  // same work, pool bypassed
  const double kernel_speedup = kernel_ms > 0 ? fold_ms / kernel_ms : 0.0;

  const FieldKernelTiming field = time_field_kernels();
  const double field_speedup = field.fixed_ns > 0 ? field.generic_ns / field.fixed_ns : 0.0;

  std::printf("\n512-bit field multiply: fixed-width %.1f ns, generic MontCtx %.1f ns"
              "  field_kernel_speedup %.2fx\n",
              field.fixed_ns, field.generic_ns, field_speedup);
  std::printf("\n%zu-pairing product batch (%d reps, best of %d rounds):\n", kTerms, kReps,
              kRounds);
  std::printf("  pair-then-multiply  : %8.3f ms   (%zu final exps)\n", fold_ms, kTerms);
  std::printf("  kernel (1 thread)   : %8.3f ms   (1 final exp)  speedup %.2fx\n",
              kernel_ms, kernel_speedup);
  std::printf("  kernel (%d threads) : %8.3f ms   pool-vs-serial %.2fx\n", pool_threads,
              pool_ms, speedup);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("  (host exposes 1 hardware thread; no parallel gain is possible)\n");

  Json root;
  root.put("bench", "pairing_micro")
      .put("group", bench_group_label())
      .put("batch", "pairing_product")
      .put("batch_terms", kTerms)
      .put("reps", kReps)
      .put("rounds", kRounds)
      .put("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .put("cpu_model", host_cpu_model())
      .put("engine_threads", engine::CryptoEngine::default_threads())
      .put("field_mul_fixed_ns", field.fixed_ns)
      .put("field_mul_generic_ns", field.generic_ns)
      .put("field_kernel_speedup", field_speedup)
      .put("serial_threads", 1)
      .put("pool_threads", pool_threads)
      .put("serial_wall_ms", serial_ms)
      .put("pool_wall_ms", pool_ms)
      .put("speedup", speedup)
      .put("fold_wall_ms", fold_ms)
      .put("kernel_wall_ms", kernel_ms)
      .put("kernel_speedup", kernel_speedup)
      .put("serial_stats", stats_json(serial_eng->stats()))
      .put("pool_stats", stats_json(pool_eng->stats()));
  write_bench_json("pairing_micro", root);
}

}  // namespace
}  // namespace maabe::bench

int main(int argc, char** argv) {
  std::printf("Pairing substrate microbenchmarks\ngroup: %s\nengine threads: %d\n\n",
              maabe::bench::bench_group_label().c_str(),
              maabe::engine::CryptoEngine::default_threads());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  maabe::bench::engine_batch_report();
  return 0;
}
