// The four workloads, each driving the path an operator runs through the
// library calls the CLI makes, configured as the CLI configures it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kCorpusBatch;
  std::uint64_t seed = 0;
  /// Length of the measured window (set-up excluded).
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics.
  bool trace = false;
  std::string data_root;  ///< generated inputs
  std::string scratch;    ///< journals, caches and state dirs of this run
};

RunResult run_workload(const RunOptions& options);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric a traced run prints, in output order; BENCHMARK.json lists
/// the same names. Metrics of layers a workload's path does not reach read
/// 0 (serve_open, for one, has no per-app analyzer to wrap).
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
