// Metrics registry: named, labeled counters, gauges and histograms.
//
// The paper's evaluation (§4–§6) measures the RLS from the outside; this
// registry gives every server an internal monitoring surface in the
// style of the Qserv replication registry and MDS2 (Zhang et al.): each
// component registers instruments once (under a mutex), then updates
// them on the hot path with plain atomic operations — no lock is ever
// taken on a counter increment. TakeSnapshot() renders the whole registry
// as a structured list, which SampleValue() reads, and RenderJson() as
// one JSON object for the JSONL exporter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace obs {

/// Monotonically increasing count (requests served, bytes sent...).
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value (queue depth, resident filters...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency distribution; thin wrapper over the lock-free log-bucket
/// histogram so registry instruments share one implementation.
///
/// A histogram can carry one exemplar: the trace id of the slowest
/// sample offered so far, so a reader staring at a bad p999 has a trace
/// to pull from the flight recorder. Lock-free, racy by design (a tie
/// may keep either sample) — that is fine for an exemplar.
class Histogram {
 public:
  void Record(std::chrono::nanoseconds latency) { hist_.Record(latency); }
  void RecordMicros(uint64_t micros) { hist_.RecordMicros(micros); }
  rlscommon::LatencyHistogram::Snapshot GetSnapshot() const {
    return hist_.GetSnapshot();
  }

  /// Attaches `trace_id` as the exemplar if `micros` is the slowest
  /// sample offered so far. Does not record into the distribution.
  void OfferExemplar(uint64_t micros, uint64_t trace_id) {
    if (trace_id == 0) return;
    if (micros < exemplar_us_.load(std::memory_order_relaxed)) return;
    exemplar_us_.store(micros, std::memory_order_relaxed);
    exemplar_trace_.store(trace_id, std::memory_order_relaxed);
  }

  uint64_t exemplar_us() const {
    return exemplar_us_.load(std::memory_order_relaxed);
  }
  uint64_t exemplar_trace() const {
    return exemplar_trace_.load(std::memory_order_relaxed);
  }

 private:
  rlscommon::LatencyHistogram hist_;
  std::atomic<uint64_t> exemplar_us_{0};
  std::atomic<uint64_t> exemplar_trace_{0};
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One rendered instrument in a registry snapshot.
struct Sample {
  std::string name;
  std::string labels;  // rendered label list, e.g. method="lrc_add" (may be empty)
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter / gauge value; a histogram's sample count
  rlscommon::LatencyHistogram::Snapshot hist;  // histogram kind only
  uint64_t exemplar_us = 0;     // histogram kind only; 0 = no exemplar
  uint64_t exemplar_trace = 0;  // trace id of the slowest sample
};

struct Snapshot {
  std::vector<Sample> samples;
};

/// Renders one label pair for instrument registration: Label("method",
/// "lrc_add") -> method="lrc_add".
std::string Label(std::string_view key, std::string_view value);

/// SampleValue's `labels` argument that sums a family over its label sets.
inline constexpr std::string_view kAnyLabels = "*";

/// The one sample lookup, over a Snapshot's samples or the metrics of a
/// GetStats reply: the value of `name` with exactly `labels`, or with
/// kAnyLabels the sum of `name` over every label set; 0 when nothing
/// matches.
template <typename Samples>
double SampleValue(const Samples& samples, std::string_view name,
                   std::string_view labels = "") {
  double sum = 0;
  for (const auto& sample : samples) {
    if (sample.name != name) continue;
    if (labels == kAnyLabels) {
      sum += sample.value;
    } else if (sample.labels == labels) {
      return sample.value;
    }
  }
  return sum;
}

/// Instrument registry. Registration (Get*/RegisterCallback) takes a
/// mutex and returns a stable pointer; repeated Get* with the same
/// name+labels returns the same instrument. Updates through the returned
/// pointers are lock-free. Snapshots iterate the instrument map under
/// the registration mutex (monitoring path, not hot).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& labels = "");

  /// Gauge whose value is computed at snapshot time (store sizes, queue
  /// depths). The callback must stay valid for the registry's lifetime
  /// or until UnregisterCallback(name, labels).
  void RegisterCallback(const std::string& name, const std::string& labels,
                        std::function<double()> callback);
  void UnregisterCallback(const std::string& name, const std::string& labels);

  /// All instruments, sorted by (name, labels) — deterministic.
  Snapshot TakeSnapshot() const;

  /// One JSON object {"metrics": [...]}; extra top-level fields from
  /// `extra` (pre-rendered "key": value fragments) are spliced in front.
  std::string RenderJson(const std::string& extra = "") const;

  /// Number of registered instruments (callbacks included).
  std::size_t size() const;

 private:
  struct Instrument {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  // callback gauges
  };

  using Key = std::pair<std::string, std::string>;  // {name, labels}

  mutable std::mutex mu_;
  std::map<Key, Instrument> instruments_;
};

}  // namespace obs
