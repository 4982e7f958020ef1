#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

/// Smallest sample with at least q of all samples at or below it.
double NearestRank(const std::vector<double>& sorted, double q) {
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

Quantiles Summarize(std::vector<double> samples) {
  Quantiles q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  auto beyond = [&samples](double value) {
    return static_cast<std::size_t>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), value));
  };
  q.p50 = NearestRank(samples, 0.50);
  q.p90 = NearestRank(samples, 0.90);
  q.p99 = NearestRank(samples, 0.99);
  q.beyond_p90 = beyond(q.p90);
  q.beyond_p99 = beyond(q.p99);
  return q;
}

WindowedQuantiles SummarizeWindows(const std::vector<std::vector<double>>& windows) {
  WindowedQuantiles result;
  std::vector<double> pooled;
  result.min_beyond_p90 = windows.empty() ? 0 : ~std::size_t{0};
  for (const std::vector<double>& samples : windows) {
    const Quantiles q = Summarize(samples);
    result.min_beyond_p90 = std::min(result.min_beyond_p90, q.beyond_p90);
    result.window_p50.push_back(q.p50);
    result.window_p90.push_back(q.p90);
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  result.all = Summarize(std::move(pooled));
  result.p50 = Quantile(result.window_p50, kBestQuartile);
  result.p90 = Quantile(result.window_p90, kBestQuartile);
  return result;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

double CpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + FormatNumber(entries_[i].value) +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics.Json() +
         "}";
}

}  // namespace perfbench
