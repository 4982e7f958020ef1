#include "obs/exporter.h"

#include <cstdio>

#include "common/logging.h"

namespace obs {

using rlscommon::Status;

JsonlExporter::JsonlExporter(Options options, std::function<std::string()> render_line,
                             rlscommon::Clock* clock)
    : options_(std::move(options)), render_line_(std::move(render_line)), clock_(clock) {}

JsonlExporter::~JsonlExporter() { Stop(); }

Status JsonlExporter::Start() {
  if (options_.path.empty()) return Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::Ok();
    running_ = true;
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void JsonlExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot so short-lived servers still leave a record.
  (void)ExportNow();
}

Status JsonlExporter::ExportNow() {
  if (options_.path.empty()) return Status::Ok();
  return Append(render_line_());
}

Status JsonlExporter::Append(const std::string& line) {
  std::FILE* f = std::fopen(options_.path.c_str(), "a");
  if (!f) {
    return Status::Internal("exporter cannot open " + options_.path);
  }
  std::fprintf(f, "%s\n", line.c_str());
  std::fclose(f);
  lines_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void JsonlExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!clock_->WaitUntil(lock, cv_, clock_->Now() + options_.period,
                            [this] { return !running_; })) {
    lock.unlock();
    Status s = ExportNow();
    if (!s.ok()) {
      RLS_WARN("obs") << "metrics export failed: " << s.ToString();
    }
    lock.lock();
  }
}

}  // namespace obs
