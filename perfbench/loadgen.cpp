#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <semaphore>
#include <thread>

#include "common/logging.h"
#include "obs/span_recorder.h"
#include "obs/trace.h"

namespace perfbench {

using rlscommon::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

OpStream::OpStream(RlsWorkload* workload, uint64_t seed, uint32_t lane)
    : workload_(workload), lane_(lane), rng_(seed * 0x9e3779b97f4a7c15ULL + lane + 1) {}

Op OpStream::Next(uint64_t* slot) {
  const uint64_t s = next_slot_++;
  *slot = s;
  auto it = deferred_.find(s);
  if (it != deferred_.end()) {
    Op op = it->second;
    deferred_.erase(it);
    return op;
  }
  if (s % kPingEvery == kPingEvery - 1) return Op{};
  chain_.clear();
  workload_->DrawChain(rng_, lane_, &chain_);
  uint64_t at = s;
  for (std::size_t i = 1; i < chain_.size(); ++i) {
    uint64_t next = at + kChainGap;
    while (deferred_.count(next) != 0 || next % kPingEvery == kPingEvery - 1) ++next;
    chain_[i].dep = static_cast<int64_t>(at);
    deferred_.emplace(next, chain_[i]);
    at = next;
  }
  return chain_[0];
}

std::vector<Op> OpStream::TakeDeferred() {
  std::vector<Op> out;
  out.reserve(deferred_.size());
  for (auto& [slot, op] : deferred_) out.push_back(op);
  deferred_.clear();
  return out;
}

Lane::Lane(std::unique_ptr<net::RpcClient> c, RlsWorkload* workload, uint64_t seed,
           uint32_t i)
    : client(std::move(c)), index(i), stream(workload, seed, i), ring(kRing) {}

namespace {

void SleepUntilNs(int64_t t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t / 1000000000);
  ts.tv_nsec = static_cast<long>(t % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// An answer whose exact check (RlsWorkload::Verify) waits for the end of
/// the phase: it costs a probe of every filter, too much for the
/// generator's send path.
struct DeferredCheck {
  uint64_t key;
  uint64_t detail[2];
  uint32_t owner;
  OpType type;
};

/// What one lane's generator thread gathered.
struct LaneTally {
  explicit LaneTally(int windows)
      : read_us(windows), write_us(windows), ping_us(windows), lag_us(windows),
        answered(windows, 0) {}

  uint64_t attempted = 0, failed = 0, reads = 0, writes = 0, chain_waits = 0;
  uint64_t backlog_end = 0;
  std::vector<std::vector<double>> read_us, write_us, ping_us, lag_us;  // per window
  std::vector<uint64_t> answered;  // closed loop: calls answered per window
  std::vector<DeferredCheck> deferred_checks;
};

class Generator {
 public:
  Generator(Lane* lane, RlsWorkload* workload, const PhaseOptions& options,
            int64_t start_ns, int64_t end_ns, LaneTally* tally)
      : lane_(lane),
        workload_(workload),
        options_(options),
        start_ns_(start_ns),
        end_ns_(end_ns),
        tally_(tally),
        sem_(options.open_loop ? 0 : options.depth),
        arrivals_(options.seed * 0xbf58476d1ce4e5b9ULL + lane->index + 7) {}

  void Run() {
    // Sub-microsecond timer slack: open-loop sends land within a few
    // microseconds of their schedule instead of the default 50 us.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    // Every call of earlier phases has answered, so each phase restarts
    // the ring.
    lane_->phase_base = lane_->stream.next_slot();
    const double lanes_rate = options_.rate;
    if (options_.open_loop) {
      const auto expected = static_cast<std::size_t>(lanes_rate * options_.seconds * 1.2 + 1024);
      for (auto& window : tally_->lag_us) window.reserve(expected / options_.windows);
      if (options_.verify) tally_->deferred_checks.reserve(expected);
    }
    int64_t due = start_ns_;
    for (;;) {
      if (options_.open_loop) {
        // Poisson arrivals: exponential gaps with mean lanes/rate.
        const double u = arrivals_.NextDouble();
        due += static_cast<int64_t>(-std::log(1.0 - u) * 1e9 / lanes_rate);
        if (due >= end_ns_) break;
        if (NowNs() < due) SleepUntilNs(due);
      } else {
        if (NowNs() >= end_ns_) break;
        sem_.acquire();
      }
      Issue(due);
    }
    tally_->backlog_end = lane_->issued.load() - lane_->completed.load(std::memory_order_acquire);
  }

  /// Waits for the lane's calls and harvests them.
  bool AwaitAll() {
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (lane_->completed.load(std::memory_order_acquire) < lane_->issued.load()) {
      if (NowNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (OpRecord& rec : lane_->ring) Harvest(&rec);
    for (const DeferredCheck& check : tally_->deferred_checks) {
      if (!workload_->Verify(Op{check.type, check.owner, check.key, -1}, check.detail)) {
        ++tally_->failed;
      }
    }
    tally_->deferred_checks = {};
    return true;
  }

  /// Runs the chain ops still pending synchronously, so every chain is
  /// complete when the phase ends.
  void Drain() {
    for (const Op& op : lane_->stream.TakeDeferred()) {
      uint16_t opcode = 0;
      std::string payload, response;
      workload_->Encode(op, &opcode, &payload);
      const Status s = lane_->client->Call(opcode, payload, &response);
      uint64_t detail[2] = {0, 0};
      ++tally_->attempted;
      if (!workload_->Check(op, s, response, detail) || !workload_->Verify(op, detail)) {
        ++tally_->failed;
      }
    }
  }

 private:
  void Issue(int64_t due) {
    uint64_t slot = 0;
    const Op op = lane_->stream.Next(&slot);
    if (op.dep >= 0 && WaitFor(static_cast<uint64_t>(op.dep))) {
      ++tally_->chain_waits;
      unblocked_ns_ = NowNs();
    }
    OpRecord& rec = lane_->ring[(slot - lane_->phase_base) % Lane::kRing];
    if (!rec.harvested) {
      while (rec.state.load(std::memory_order_acquire) == 0) std::this_thread::yield();
      Harvest(&rec);
    }
    rec.op = op;
    rec.slot = slot;
    rec.harvested = false;
    rec.detail[0] = rec.detail[1] = 0;
    rec.state.store(0, std::memory_order_relaxed);
    uint16_t opcode = 0;
    std::string payload;
    workload_->Encode(op, &opcode, &payload);
    rec.sent_ns = NowNs();
    rec.due_ns = options_.open_loop ? due : rec.sent_ns;
    if (options_.open_loop) {
      const double lag_us = (rec.sent_ns - std::max(due, unblocked_ns_)) / 1e3;
      tally_->lag_us[WindowOf(due)].push_back(lag_us);
    }
    ++tally_->attempted;
    switch (ClassOf(op.type)) {
      case OpClass::kRead: ++tally_->reads; break;
      case OpClass::kWrite: ++tally_->writes; break;
      case OpClass::kPing: break;
    }
    lane_->issued.fetch_add(1, std::memory_order_relaxed);

    net::Future future;
    if (options_.spans) {
      rec.trace_id = obs::NewTraceId();
      obs::ScopedTrace trace(rlscommon::TraceContext{rec.trace_id, obs::NewTraceId()});
      future = lane_->client->BeginCall(opcode, payload);
    } else {
      future = lane_->client->BeginCall(opcode, payload);
    }
    Lane* lane = lane_;
    RlsWorkload* workload = workload_;
    const bool spans = options_.spans;
    std::counting_semaphore<>* sem = options_.open_loop ? nullptr : &sem_;
    future.Then([&rec, lane, workload, spans, sem](const Status& s,
                                                   const std::string& response) {
      rec.done_ns = NowNs();
      const bool ok = workload->Check(rec.op, s, response, rec.detail);
      if (spans) {
        // The benchmark's own client-side span; it shares the trace id
        // the server's request span carries.
        obs::CompletedSpan span;
        span.component = "bench";
        span.name = OpTypeName(rec.op.type);
        span.trace_id = rec.trace_id;
        span.span_id = rec.trace_id;
        span.tid = rlscommon::DenseThreadId();
        span.start_us = rec.sent_ns / 1000;
        span.duration_us = static_cast<uint64_t>((rec.done_ns - rec.sent_ns) / 1000);
        obs::SpanRecorder::Global().Record(std::move(span));
      }
      // Last touch of `rec`: the generator may recycle it from here on.
      rec.state.store(ok ? 1 : 2, std::memory_order_release);
      if (sem) sem->release();
      // Last touch of generator state: once every call is counted the
      // phase may end and free the semaphore.
      lane->completed.fetch_add(1, std::memory_order_release);
    });
  }

  /// Waits until the call in slot `dep` answered; true if it had not yet.
  bool WaitFor(uint64_t dep) {
    if (dep < lane_->phase_base) return false;  // earlier phases ended answered
    const OpRecord& rec = lane_->ring[(dep - lane_->phase_base) % Lane::kRing];
    if (rec.slot != dep) return false;  // recycled, hence finished long ago
    if (rec.state.load(std::memory_order_acquire) != 0) return false;
    while (rec.state.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    return true;
  }

  void Harvest(OpRecord* rec) {
    if (rec->harvested) return;
    rec->harvested = true;
    const uint8_t state = rec->state.load(std::memory_order_acquire);
    if (state != 1) {
      ++tally_->failed;
    } else if (options_.verify && RlsWorkload::HasExactCheck(rec->op)) {
      tally_->deferred_checks.push_back(DeferredCheck{
          rec->op.key, {rec->detail[0], rec->detail[1]}, rec->op.owner, rec->op.type});
    }
    if (!options_.open_loop) {
      if (rec->done_ns < end_ns_) ++tally_->answered[WindowOf(rec->done_ns)];
      return;
    }
    const double latency_us = (rec->done_ns - rec->due_ns) / 1e3;
    const int window = WindowOf(rec->due_ns);
    switch (ClassOf(rec->op.type)) {
      case OpClass::kRead: tally_->read_us[window].push_back(latency_us); break;
      case OpClass::kWrite: tally_->write_us[window].push_back(latency_us); break;
      case OpClass::kPing: tally_->ping_us[window].push_back(latency_us); break;
    }
  }

  int WindowOf(int64_t t) const {
    const int64_t w = (t - start_ns_) * options_.windows / (end_ns_ - start_ns_);
    return static_cast<int>(std::clamp<int64_t>(w, 0, options_.windows - 1));
  }

  Lane* lane_;
  RlsWorkload* workload_;
  const PhaseOptions& options_;
  int64_t start_ns_, end_ns_;
  LaneTally* tally_;
  int64_t unblocked_ns_ = 0;  // when the last wait for a predecessor ended
  std::counting_semaphore<> sem_;
  rlscommon::Xoshiro256 arrivals_;
};

}  // namespace

PhaseResult RunPhase(std::vector<std::unique_ptr<Lane>>& lanes, RlsWorkload* workload,
                     const PhaseOptions& options) {
  PhaseResult result;
  uint64_t bytes_before = 0;
  for (auto& lane : lanes) bytes_before += lane->client->bytes_sent();

  std::vector<PhaseOptions> per_lane(lanes.size(), options);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    per_lane[i].rate = options.rate * workload->LaneShare(static_cast<uint32_t>(i),
                                                          static_cast<uint32_t>(lanes.size()));
  }
  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t end_ns = start_ns + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<LaneTally> tallies(lanes.size(), LaneTally(options.windows));
  std::vector<std::unique_ptr<Generator>> generators;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    generators.push_back(std::make_unique<Generator>(lanes[i].get(), workload, per_lane[i],
                                                     start_ns, end_ns, &tallies[i]));
  }
  std::atomic<int> running{static_cast<int>(lanes.size())};
  std::vector<std::thread> threads;
  for (auto& generator : generators) {
    threads.emplace_back([&running, g = generator.get()] {
      g->Run();
      running.fetch_sub(1);
    });
  }
  // Backlog monitor: calls in flight, sampled every 10 ms.
  const int64_t half_ns = start_ns + (end_ns - start_ns) / 2;
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (NowNs() < half_ns) continue;
    uint64_t in_flight = 0;
    for (auto& lane : lanes) {
      in_flight += lane->issued.load() - lane->completed.load(std::memory_order_acquire);
    }
    result.in_flight_late.push_back(in_flight);
  }
  for (auto& thread : threads) thread.join();
  for (auto& generator : generators) {
    if (!generator->AwaitAll()) {
      std::fprintf(stderr, "perfbench: calls still unanswered 60 s after the phase\n");
      std::exit(4);
    }
  }
  for (auto& tally : tallies) result.scheduled += tally.attempted;
  if (options.drain) {
    for (auto& generator : generators) generator->Drain();
  }

  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  result.read_us.resize(options.windows);
  result.write_us.resize(options.windows);
  result.ping_us.resize(options.windows);
  result.lag_us.resize(options.windows);
  result.window_ops_s.assign(options.windows, 0);
  const double window_s = options.seconds / options.windows;
  for (auto& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    result.reads += tally.reads;
    result.writes += tally.writes;
    result.backlog_end += tally.backlog_end;
    result.chain_waits += tally.chain_waits;
    for (int w = 0; w < options.windows; ++w) {
      append(&result.read_us[w], tally.read_us[w]);
      append(&result.write_us[w], tally.write_us[w]);
      append(&result.ping_us[w], tally.ping_us[w]);
      append(&result.lag_us[w], tally.lag_us[w]);
      result.window_ops_s[w] += tally.answered[w] / window_s;
    }
  }
  uint64_t bytes_after = 0;
  for (auto& lane : lanes) bytes_after += lane->client->bytes_sent();
  result.bytes_sent = bytes_after - bytes_before;
  return result;
}

void AppendPhase(PhaseResult* into, PhaseResult from) {
  into->attempted += from.attempted;
  into->scheduled += from.scheduled;
  into->failed += from.failed;
  into->reads += from.reads;
  into->writes += from.writes;
  into->bytes_sent += from.bytes_sent;
  into->chain_waits += from.chain_waits;
  into->backlog_end = std::max(into->backlog_end, from.backlog_end);
  auto append = [](auto* to, auto& more) {
    to->insert(to->end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };
  append(&into->read_us, from.read_us);
  append(&into->write_us, from.write_us);
  append(&into->ping_us, from.ping_us);
  append(&into->lag_us, from.lag_us);
  append(&into->window_ops_s, from.window_ops_s);
  append(&into->in_flight_late, from.in_flight_late);
}

}  // namespace perfbench
