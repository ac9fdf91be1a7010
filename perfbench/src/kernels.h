// Kernel unit times, measured in the benchmark's process by calling the
// layers' public functions on the workload's curve, policy shape and
// payload size. Each is the median of several repetitions.
#pragma once

#include <map>
#include <string>

#include "driver.h"

namespace maabe::perfbench {

struct KernelTime {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// Times are scaled to the probe's reference speed, rep by rep.
std::map<std::string, KernelTime> measure_kernels(const pairing::Group& grp,
                                                  const WorkloadSpec& spec, uint64_t seed,
                                                  SpeedProbe& probe);

}  // namespace maabe::perfbench
