// Sample statistics and the result line of one benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

/// Seconds on the system-wide monotonic clock: unlike now_s(), comparable
/// between processes.
double monotonic_s();

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values);

/// getrusage max resident set of this process, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints last: the oracle verdict, the operation counts
/// behind error_rate, and the metrics of the requested kind.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Records an oracle failure: prints the reason to stderr and flips
  /// `correct`.
  void fail(const std::string& reason);
};

/// The result object, printed as the last stdout line of a run.
std::string result_json(const RunResult& result);

/// printf-style line on stdout (the human-readable log above the result).
void say(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
