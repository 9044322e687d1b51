// The benchmark's workloads: each is one repetition's list of experiment
// specs, derived only from the workload name and the seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// One repetition: every spec runs once, in order.
  std::vector<mead::app::ExperimentSpec> specs;
  /// Chaos faults the specs schedule, summed (fault.injected must match).
  std::uint64_t faults_scheduled = 0;
  /// Key count of the stateful service (0: stateless, no state probes).
  std::uint32_t state_keys = 0;
  /// Check the Table 1 ordering (paper workload only).
  bool table1_shape = false;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace perfbench
