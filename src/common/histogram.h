// Lock-free latency histogram with logarithmic buckets.
//
// Servers record per-request service times into per-method histograms;
// the monitoring interface reports count/mean/quantiles.
// Buckets are powers of two in microseconds (1 us .. ~36 min), so
// Record is one atomic increment and quantiles are exact to within a 2x
// bucket (plenty for operation-rate monitoring).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace rlscommon {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;  // 2^0 .. 2^31 us

  LatencyHistogram() = default;

  /// Records one sample. Thread-safe, wait-free.
  void Record(std::chrono::nanoseconds latency);

  void RecordMicros(uint64_t micros);

  struct Snapshot {
    uint64_t count = 0;
    double mean_us = 0;
    uint64_t p50_us = 0;
    uint64_t p95_us = 0;
    uint64_t p99_us = 0;
    uint64_t p999_us = 0;  // tail quantile — where overload shows first
    uint64_t max_us = 0;   // upper edge of the highest non-empty bucket
  };

  /// Consistent-enough snapshot for monitoring (buckets are read without
  /// a global lock; concurrent updates may skew counts by a few samples).
  Snapshot GetSnapshot() const;

  /// "count=42 mean=130us p50=128us p95=512us p99=1024us p999=2048us".
  std::string ToString() const;

  void Reset();

 private:
  static std::size_t BucketFor(uint64_t micros);
  static uint64_t BucketUpperEdge(std::size_t bucket);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> total_micros_{0};
  std::atomic<uint64_t> count_{0};
};

}  // namespace rlscommon
