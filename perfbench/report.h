// Result bookkeeping of the RLS performance benchmark: exact quantiles of
// per-op samples, process resource readings, and the metric set printed
// as the last line of a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantiles over every sample (no bucketing).
struct Quantiles {
  std::size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::size_t beyond_p90 = 0;  // samples strictly above p90
  std::size_t beyond_p99 = 0;  // samples strictly above p99
};

Quantiles Summarize(std::vector<double> samples);

/// A phase reported in time windows: p50 and p90 are the lower quartiles
/// (kBestQuartile) over the windows of each window's exact quantile;
/// p99 is exact over all samples of the phase.
struct WindowedQuantiles {
  Quantiles all;                    // every sample of the phase
  double p50 = 0, p90 = 0;          // lower quartiles over windows
  std::size_t min_beyond_p90 = 0;   // fewest samples beyond p90 in a window
  std::vector<double> window_p50, window_p90;
};

WindowedQuantiles SummarizeWindows(const std::vector<std::vector<double>>& windows);

/// Host stalls only make a window slower, never faster, so a figure over
/// windows is taken at the better quartile: the lower one for latencies,
/// the upper one for throughput. A stall has to cover more than three
/// windows in four to move it.
constexpr double kBestQuartile = 0.25;

/// Quantile `q` (0..1) of `values`, interpolated between neighbours; 0
/// when empty.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// User + system CPU time of this process, microseconds.
double CpuMicros();

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The result object: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {...}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench
