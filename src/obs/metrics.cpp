#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace obs {

std::string Label(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(key.size() + value.size() + 3);
  out.append(key);
  out.append("=\"");
  out.append(value);
  out.append("\"");
  return out;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, labels}];
  if (!inst.counter) {
    inst.kind = MetricKind::kCounter;
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, labels}];
  if (!inst.gauge) {
    inst.kind = MetricKind::kGauge;
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, labels}];
  if (!inst.histogram) {
    inst.kind = MetricKind::kHistogram;
    inst.histogram = std::make_unique<Histogram>();
  }
  return inst.histogram.get();
}

void Registry::RegisterCallback(const std::string& name, const std::string& labels,
                                std::function<double()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[{name, labels}];
  inst.kind = MetricKind::kGauge;
  inst.callback = std::move(callback);
}

void Registry::UnregisterCallback(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find({name, labels});
  if (it != instruments_.end() && it->second.callback) instruments_.erase(it);
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.samples.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    Sample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.kind = inst.kind;
    if (inst.callback) {
      sample.value = inst.callback();
    } else if (inst.counter) {
      sample.value = static_cast<double>(inst.counter->Value());
    } else if (inst.gauge) {
      sample.value = static_cast<double>(inst.gauge->Value());
    } else if (inst.histogram) {
      sample.hist = inst.histogram->GetSnapshot();
      sample.value = static_cast<double>(sample.hist.count);
      sample.exemplar_us = inst.histogram->exemplar_us();
      sample.exemplar_trace = inst.histogram->exemplar_trace();
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

namespace {

/// %g-style rendering without trailing noise; integral values print
/// without a fractional part so golden outputs are stable.
std::string FormatValue(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string Registry::RenderJson(const std::string& extra) const {
  Snapshot snapshot = TakeSnapshot();
  std::string out = "{";
  if (!extra.empty()) {
    out += extra;
    out += ", ";
  }
  out += "\"metrics\": [";
  bool first = true;
  for (const Sample& s : snapshot.samples) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + s.name + "\"";
    if (!s.labels.empty()) {
      std::string escaped;
      for (char c : s.labels) {
        if (c == '"') escaped += '\\';
        escaped += c;
      }
      out += ", \"labels\": \"" + escaped + "\"";
    }
    if (s.kind == MetricKind::kHistogram) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ", \"count\": %" PRIu64 ", \"mean_us\": %g, \"p50_us\": %" PRIu64
                    ", \"p95_us\": %" PRIu64 ", \"p99_us\": %" PRIu64
                    ", \"p999_us\": %" PRIu64 ", \"max_us\": %" PRIu64,
                    s.hist.count, s.hist.mean_us, s.hist.p50_us, s.hist.p95_us,
                    s.hist.p99_us, s.hist.p999_us, s.hist.max_us);
      out += buf;
      // Exemplar of the slowest sample, when one was offered — the
      // trace id a reader feeds to GetTraces.
      if (s.exemplar_trace != 0) {
        std::snprintf(buf, sizeof(buf),
                      ", \"exemplar_us\": %" PRIu64
                      ", \"exemplar_trace\": \"%016" PRIx64 "\"",
                      s.exemplar_us, s.exemplar_trace);
        out += buf;
      }
      out += "}";
    } else {
      out += ", \"value\": " + FormatValue(s.value) + "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace obs
