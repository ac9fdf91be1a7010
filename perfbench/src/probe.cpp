#include "probe.h"

#include <algorithm>
#include <cstdint>

#include "fold.h"

namespace maabe::perfbench {

namespace {

constexpr double kGapS = 0.02;     // sample at most every 20 ms
constexpr double kMarginS = 0.5;   // samples this close to an interval count for it
constexpr int kIterations = 2000;  // about kReferenceUs on a quiet host

using u128 = unsigned __int128;

uint64_t g_sink = 0;  // keeps the probe's result observable

/// 8x8-limb schoolbook products over a 16 KiB ring of operands, each
/// product folded back into the ring so no iteration can be skipped.
uint64_t run_probe() {
  static std::vector<uint64_t> ring = [] {
    std::vector<uint64_t> v(2048);
    for (size_t i = 0; i < v.size(); ++i) v[i] = i * 0x9e3779b97f4a7c15ULL + 1;
    return v;
  }();
  const size_t n = ring.size() / 8;
  uint64_t acc = 0;
  for (int it = 0; it < kIterations; ++it) {
    const uint64_t* a = &ring[(static_cast<size_t>(it) % n) * 8];
    const uint64_t* b = &ring[((static_cast<size_t>(it) * 7 + 3) % n) * 8];
    uint64_t r[16] = {};
    for (int i = 0; i < 8; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < 8; ++j) {
        const u128 t = static_cast<u128>(a[i]) * b[j] + r[i + j] + carry;
        r[i + j] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
      }
      r[i + 8] = carry;
    }
    uint64_t* w = &ring[((static_cast<size_t>(it) * 13 + 5) % n) * 8];
    for (int k = 0; k < 8; ++k) w[k] ^= r[k + 4];
    acc += r[15];
  }
  return acc;
}

}  // namespace

double SpeedProbe::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void SpeedProbe::sample() {
  const double t0 = now();
  g_sink += run_probe();
  samples_.push_back({t0, (now() - t0) * 1e6});
}

void SpeedProbe::maybe_sample() {
  if (samples_.empty() || now() - samples_.back().t >= kGapS) sample();
}

double SpeedProbe::factor(double t0, double t1) const {
  if (samples_.empty()) return 1;
  const auto by_t = [](const Sample& s, double t) { return s.t < t; };
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), t0 - kMarginS, by_t);
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), t1 + kMarginS, by_t);
  // Always include the nearest sample on each side of the interval.
  if (lo != samples_.begin() && (lo == samples_.end() || lo->t > t0)) --lo;
  if (hi != samples_.end()) ++hi;
  std::vector<double> us;
  for (auto it = lo; it != hi; ++it) us.push_back(it->us);
  return kReferenceUs / median(us);
}

double SpeedProbe::cost(double t0, double t1) const {
  double s = 0;
  for (const Sample& x : samples_) {
    if (x.t >= t0 && x.t < t1) s += x.us / 1e6;
  }
  return s;
}

}  // namespace maabe::perfbench
