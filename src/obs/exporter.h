// Periodic JSONL snapshot exporter (tentpole part 3, exporter half).
//
// Appends one JSON line per period to a configured path so the bench
// harness (and any external tooling) can record server-side metrics
// alongside client-side rates. The render callback produces the line;
// the period runs on the injected clock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/error.h"

namespace obs {

class JsonlExporter {
 public:
  struct Options {
    std::string path;                          // empty = exporter disabled
    std::chrono::milliseconds period{1000};
  };

  /// `render_line` is called once per period of `clock` (and once on
  /// Stop) from the exporter thread; its result is appended as one line.
  JsonlExporter(Options options, std::function<std::string()> render_line,
                rlscommon::Clock* clock = rlscommon::SystemClock::Instance());
  ~JsonlExporter();

  JsonlExporter(const JsonlExporter&) = delete;
  JsonlExporter& operator=(const JsonlExporter&) = delete;

  /// No-op (Ok) when no path is configured.
  rlscommon::Status Start();

  /// Writes one final snapshot, then joins the exporter thread.
  void Stop();

  /// Renders and appends one line immediately (also used by tests).
  rlscommon::Status ExportNow();

  uint64_t lines_written() const { return lines_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  rlscommon::Status Append(const std::string& line);

  Options options_;
  std::function<std::string()> render_line_;
  rlscommon::Clock* clock_;

  std::atomic<uint64_t> lines_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace obs
