// Soft-state staleness checker (paper §3.3–3.4).
//
// One LRC and its RLIs share one ManualClock. A seeded script of creates
// and deletes, RLI queries, an outage and heal of an RLI and an LRC stop
// runs in steps of virtual time and is recorded as a timed history. The
// history is then checked, for each update mode (full, immediate, Bloom,
// and partitioned across two RLIs with a pattern each), for:
//   * completeness: a name the LRC has held since t is in every answer
//     of an RLI responsible for it after t + P, where P is the mode's
//     interval plus one send (immediate mode flushes sooner once its
//     pending cap fills). A window that overlaps the fault, or the
//     recovery it leaves owed, starts again at the heal and is extended
//     by target_backoff_max;
//   * soundness: an RLI names the LRC for a name at τ only if the LRC
//     held that name at some time after τ − (refresh interval + timeout),
//     and only if the name is in that RLI's partition. Bloom false
//     positives are exempt, but their measured rate must stay within
//     the bound bloom_test asserts for 10 bits per entry and 3 hashes;
//   * expiry: the names refreshed as the LRC stops at t stay in every
//     answer before t + timeout and are gone from every answer from
//     t + timeout on, exactly, on the virtual clock.
// Sends take no virtual time, so one send is one step of the script.
// Every mode runs on both transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "net/fault.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using namespace std::chrono_literals;
using rlscommon::Duration;
using rlscommon::TimePoint;

constexpr Duration kStep = 50ms;  // one step of the script, one send
constexpr std::chrono::seconds kTimeout{3};
constexpr Duration kFullInterval = 1000ms;
constexpr Duration kImmediateInterval = 200ms;
constexpr std::size_t kImmediateCap = 4;
constexpr Duration kBackoffMax = 400ms;
constexpr int kSteps = 120;  // scripted traffic, then the LRC stops
constexpr int kOutageStep = 55;  // 2.75 s to 3.5 s: spans the round at 3 s
constexpr int kHealStep = 70;
constexpr int kNamesPerPartition = 24;
constexpr int kNeverHeldPerPartition = 100;
constexpr double kBloomFpBound = 0.03;  // bloom_test, 10 bits/entry, 3 hashes
const char* const kPartitions[] = {"lfn://a/*", "lfn://b/*"};

struct Case {
  UpdateMode mode;
  const char* transport;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << UpdateModeName(c.mode) << " over " << c.transport;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string mode(UpdateModeName(info.param.mode));
  mode[0] = static_cast<char>(std::toupper(mode[0]));
  return mode + (std::string(info.param.transport) == "inproc" ? "_InProc" : "_Tcp");
}

/// One change the LRC committed.
struct Commit {
  std::string name;
  bool added;
  TimePoint at;
};

/// One RLI answer: whether RLI `rli` named the LRC for `name` at `at`.
struct Answer {
  std::size_t rli;
  std::string name;
  bool names_lrc;
  TimePoint at;
};

struct Violation {
  TimePoint at;
  std::string what;
};

long Millis(TimePoint t) {
  return static_cast<long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(t.time_since_epoch()).count());
}

class SoftStateHistoryTest : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, SoftStateHistoryTest,
    ::testing::Values(Case{UpdateMode::kFull, "inproc"},
                      Case{UpdateMode::kFull, "tcp://127.0.0.1"},
                      Case{UpdateMode::kImmediate, "inproc"},
                      Case{UpdateMode::kImmediate, "tcp://127.0.0.1"},
                      Case{UpdateMode::kBloom, "inproc"},
                      Case{UpdateMode::kBloom, "tcp://127.0.0.1"},
                      Case{UpdateMode::kPartitioned, "inproc"},
                      Case{UpdateMode::kPartitioned, "tcp://127.0.0.1"}),
    CaseName);

TEST_P(SoftStateHistoryTest, StalenessBoundsHold) {
  const UpdateMode mode = GetParam().mode;
  const bool partitioned = mode == UpdateMode::kPartitioned;
  const bool bloom = mode == UpdateMode::kBloom;
  const std::size_t num_rlis = partitioned ? 2 : 1;
  const std::string prefix = "hist-" + std::string(UpdateModeName(mode));

  rlscommon::ManualClock clock;
  std::unique_ptr<net::Transport> transport = net::MakeTransport(GetParam().transport);
  net::FaultInjector* faults = transport->EnableFaultInjection(7);
  dbapi::Environment env;

  std::vector<std::string> rli_addrs;
  std::vector<std::unique_ptr<RlsServer>> rlis;
  for (std::size_t i = 0; i < num_rlis; ++i) {
    RlsServerConfig config;
    config.address = prefix + "-rli" + std::to_string(i);
    config.rli.enabled = true;
    config.rli.dsn = "mysql://" + config.address;
    config.rli.timeout = kTimeout;
    ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
    rlis.push_back(std::make_unique<RlsServer>(transport.get(), config, &env, &clock));
    ASSERT_TRUE(rlis.back()->Start().ok());
    rli_addrs.push_back(config.address);
  }

  RlsServerConfig lrc_config;
  lrc_config.address = prefix + "-lrc";
  lrc_config.url = lrc_config.address;
  lrc_config.lrc.enabled = true;
  lrc_config.lrc.dsn = "mysql://" + lrc_config.address;
  UpdateConfig& update = lrc_config.lrc.update;
  update.mode = mode;
  for (std::size_t i = 0; i < num_rlis; ++i) {
    UpdateTarget target{rli_addrs[i]};
    if (partitioned) target.patterns = {kPartitions[i]};
    update.targets.push_back(target);
  }
  update.full_interval = std::chrono::duration_cast<std::chrono::milliseconds>(kFullInterval);
  update.immediate_interval =
      std::chrono::duration_cast<std::chrono::milliseconds>(kImmediateInterval);
  update.immediate_max_pending = kImmediateCap;
  update.bloom_expected_entries = 2 * kNamesPerPartition;
  update.unhealthy_after_failures = 2;
  update.target_backoff_initial = 100ms;
  update.target_backoff_max = std::chrono::duration_cast<std::chrono::milliseconds>(kBackoffMax);
  ASSERT_TRUE(env.CreateDatabase(lrc_config.lrc.dsn).ok());
  auto lrc = std::make_unique<RlsServer>(transport.get(), lrc_config, &env, &clock);
  ASSERT_TRUE(lrc->Start().ok());

  std::unique_ptr<LrcClient> lrc_client;
  ASSERT_TRUE(LrcClient::Connect(transport.get(), lrc_config.address, {}, &lrc_client).ok());
  std::vector<std::unique_ptr<RliClient>> rli_clients(num_rlis);
  for (std::size_t i = 0; i < num_rlis; ++i) {
    ASSERT_TRUE(RliClient::Connect(transport.get(), rli_addrs[i], {}, &rli_clients[i]).ok());
  }

  std::vector<std::string> names, never_held;
  for (const std::string part : {"a", "b"}) {
    for (int i = 0; i < kNamesPerPartition; ++i) {
      names.push_back("lfn://" + part + "/" + std::to_string(i));
    }
    for (int i = 0; i < kNeverHeldPerPartition; ++i) {
      never_held.push_back("lfn://" + part + "/never-" + std::to_string(i));
    }
  }
  auto responsible = [&](std::size_t rli, const std::string& name) {
    return !partitioned || rlscommon::WildcardMatch(kPartitions[rli], name);
  };

  // --- The script, recorded as a timed history. ---
  std::size_t loops = 1 + num_rlis;  // the LRC's scheduler + each RLI's expiry
  auto settle = [&] { return clock.WaitForParked(loops, 10s); };
  bool dark = false;  // RLI 0 is down: it answers nothing
  std::vector<Commit> commits;
  std::vector<Answer> answers;
  auto query = [&](const std::vector<std::string>& batch) {
    for (std::size_t rli = 0; rli < num_rlis; ++rli) {
      if (dark && rli == 0) continue;
      std::vector<Mapping> found;
      if (!rli_clients[rli]->BulkQuery(batch, &found).ok()) return false;
      std::set<std::string> named;
      for (const Mapping& m : found) {
        if (m.target == lrc_config.url) named.insert(m.logical);
      }
      for (const std::string& name : batch) {
        answers.push_back({rli, name, named.count(name) > 0, clock.Now()});
      }
    }
    return true;
  };

  std::mt19937_64 rng(2004 + static_cast<int>(mode));
  std::map<std::string, bool> held;
  TimePoint outage_start{}, heal{};
  for (int step = 1; step <= kSteps; ++step) {
    clock.Advance(kStep);
    ASSERT_TRUE(settle()) << "loops did not settle at " << Millis(clock.Now()) << " ms";
    if (step == kOutageStep) {
      // RLI 0 goes dark as a crashed host does: an open connection to it
      // resets on its next message and reconnects are refused. Sends
      // into it fail at once, not by an RPC deadline (what Blackout()'s
      // silent drops cost), so the faults the LRC sees are exactly
      // these, however slowly the host runs.
      net::FaultPlan crashed;
      crashed.disconnect_after_messages = 1;
      crashed.connect_failure_probability = 1.0;
      faults->SetPlan(rli_addrs[0], crashed);
      outage_start = clock.Now();
      dark = true;
    } else if (step == kHealStep) {
      faults->ClearPlan(rli_addrs[0]);
      heal = clock.Now();
      dark = false;
    }
    for (int change = static_cast<int>(rng() % 4); change > 0; --change) {
      const std::string& name = names[rng() % names.size()];
      bool& is_held = held[name];
      ASSERT_TRUE((is_held ? lrc_client->Delete(name, "pfn") : lrc_client->Create(name, "pfn"))
                      .ok());
      is_held = !is_held;
      commits.push_back({name, is_held, clock.Now()});
    }
    ASSERT_TRUE(settle()) << "loops did not settle at " << Millis(clock.Now()) << " ms";
    ASSERT_TRUE(query(names));
    if (step % 10 == 0) {
      ASSERT_TRUE(query(never_held));
    }
  }
  EXPECT_GE(lrc->update_manager()->stats().send_failures, 1u) << "the outage cost no send";

  // One step on, refresh every RLI, then stop the LRC: nothing refreshes
  // its names again, and the RLIs run on alone.
  clock.Advance(kStep);
  ASSERT_TRUE(settle());
  ASSERT_TRUE(lrc_client->ForceUpdate().ok());
  const TimePoint stop = clock.Now();
  lrc_client.reset();
  lrc->Stop();
  loops = num_rlis;
  while (clock.Now() < stop + kTimeout + 10 * kStep) {
    clock.Advance(kStep);
    ASSERT_TRUE(settle()) << "loops did not settle at " << Millis(clock.Now()) << " ms";
    ASSERT_TRUE(query(names));
  }

  // --- The checks. ---
  // Held intervals [from, to) per name; the stop closes the open ones.
  std::map<std::string, std::vector<std::pair<TimePoint, TimePoint>>> intervals;
  for (const Commit& c : commits) {
    auto& list = intervals[c.name];
    if (c.added) {
      list.emplace_back(c.at, TimePoint::max());
    } else {
      list.back().second = c.at;
    }
  }
  for (auto& [name, list] : intervals) {
    if (!list.empty() && list.back().second == TimePoint::max()) list.back().second = stop;
  }
  auto held_since = [&](const std::string& name, TimePoint at) -> std::optional<TimePoint> {
    for (const auto& [from, to] : intervals[name]) {
      if (from <= at && at < to) return from;
    }
    return std::nullopt;
  };
  auto held_after = [&](const std::string& name, TimePoint since, TimePoint at) {
    for (const auto& [from, to] : intervals[name]) {
      if (from <= at && to > since) return true;
    }
    return false;
  };

  const Duration propagation =
      (mode == UpdateMode::kImmediate ? kImmediateInterval : kFullInterval) + kStep;
  const Duration staleness = kFullInterval + kTimeout;
  std::vector<Violation> violations;
  std::size_t fp_probes = 0, fp_hits = 0;
  auto rli_name = [](std::size_t rli) { return "RLI " + std::to_string(rli); };
  for (const Answer& a : answers) {
    if (a.names_lrc && !responsible(a.rli, a.name)) {
      violations.push_back({a.at, "soundness: " + rli_name(a.rli) + " names the LRC for " +
                                      a.name + ", outside its partition"});
      continue;
    }
    if (a.at >= stop + kTimeout) {
      if (a.names_lrc) {
        violations.push_back({a.at, "expiry: " + rli_name(a.rli) + " still names the LRC for " +
                                        a.name + " after the LRC stopped at " +
                                        std::to_string(Millis(stop)) + " ms"});
      }
      continue;
    }
    if (a.at >= stop && held[a.name]) {  // refreshed as the LRC stopped
      if (responsible(a.rli, a.name) && !a.names_lrc) {
        violations.push_back({a.at, "expiry: " + rli_name(a.rli) + " dropped " + a.name +
                                        " before the timeout after its refresh at " +
                                        std::to_string(Millis(stop)) + " ms"});
      }
      continue;
    }
    const std::optional<TimePoint> since =
        a.at < stop ? held_since(a.name, a.at) : std::nullopt;
    if (since) {
      // The outage lasts until its heal, and its effect until the
      // recovery resend the heal leaves owed, at most one backoff later.
      TimePoint due = *since + propagation;
      if (*since <= heal + kBackoffMax && due >= outage_start) {
        due = std::max(*since, heal) + propagation + kBackoffMax;
      }
      if (a.at >= due && responsible(a.rli, a.name) && !a.names_lrc) {
        violations.push_back({a.at, "completeness: " + a.name + ", held since " +
                                        std::to_string(Millis(*since)) + " ms, is missing from " +
                                        rli_name(a.rli) + " (due by " +
                                        std::to_string(Millis(due)) + " ms)"});
      }
      continue;
    }
    if (held_after(a.name, a.at - staleness, a.at)) continue;  // stale within S
    if (bloom) {
      ++fp_probes;
      if (a.names_lrc) ++fp_hits;
    } else if (a.names_lrc) {
      violations.push_back({a.at, "soundness: " + rli_name(a.rli) + " names the LRC for " +
                                      a.name + ", not held since " +
                                      std::to_string(Millis(a.at - staleness)) + " ms"});
    }
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& x, const Violation& y) { return x.at < y.at; });
  if (!violations.empty()) {
    ADD_FAILURE() << violations.size() << " violations; the first at "
                  << Millis(violations.front().at) << " ms: " << violations.front().what;
  }
  if (bloom) {
    ASSERT_GT(fp_probes, 0u);
    EXPECT_LE(static_cast<double>(fp_hits) / fp_probes, kBloomFpBound)
        << fp_hits << " false positives in " << fp_probes << " probes";
  }
  // The history exercised what it checks.
  EXPECT_GE(commits.size(), 100u);
  EXPECT_GT(std::count_if(answers.begin(), answers.end(),
                          [&](const Answer& a) { return a.at > heal && a.names_lrc; }),
            0);
}

}  // namespace
}  // namespace rls
