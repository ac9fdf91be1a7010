// Host-speed probe. The machines this benchmark runs on are shared: the
// speed of multiply- and memory-heavy code moves by a quarter over
// seconds as neighbours come and go, far more than the changes the
// benchmark must resolve. The probe is a fixed piece of the benchmark's
// own code (8x8-limb schoolbook products, the shape of the program's
// field arithmetic but none of its code), timed every few milliseconds
// between ops. A time t measured while the probe took p microseconds is
// reported as t * kReferenceUs / p: the time at the probe's reference
// speed. On a quiet host the probe takes about kReferenceUs, so the
// scaled times read close to raw ones there; raw times are printed too.
#pragma once

#include <chrono>
#include <vector>

namespace maabe::perfbench {

class SpeedProbe {
 public:
  /// Probe time, in microseconds, that defines the reference speed.
  static constexpr double kReferenceUs = 250;

  /// Runs the probe if the last sample is older than the sampling gap.
  void maybe_sample();
  /// Runs the probe now.
  void sample();

  /// Seconds on the probe's clock (steady clock since construction).
  double now() const;
  /// Factor that scales a time measured over [t0, t1] to the reference
  /// speed: kReferenceUs over the median probe time of the samples
  /// within a short margin of the interval (at least the nearest ones).
  double factor(double t0, double t1) const;
  /// Seconds spent running the probe in [t0, t1].
  double cost(double t0, double t1) const;

 private:
  struct Sample {
    double t;   ///< start, seconds
    double us;  ///< probe time
  };
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Sample> samples_;
};

}  // namespace maabe::perfbench
