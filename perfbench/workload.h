// Workloads of the RLS performance benchmark: the fixed parameters of
// each, its op stream, the request encoding and the check of every answer
// against the benchmark's model of the catalog.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/error.h"
#include "common/rng.h"

namespace perfbench {

enum class OpType : uint8_t {
  kQuery,           // LRC query of a registered name
  kQueryAbsent,     // LRC query of a name that was never registered
  kCreate,          // LRC create of a fresh name
  kDelete,          // LRC delete of a fresh name's mapping
  kRliQuery,        // RLI query of a registered name
  kRliQueryAbsent,  // RLI query of a name no LRC holds
  kPing,
};

enum class OpClass { kRead, kWrite, kPing };

OpClass ClassOf(OpType type);
const char* OpTypeName(OpType type);

struct Op {
  OpType type = OpType::kPing;
  uint32_t owner = 0;  // RLI queries: index of the LRC holding the name
  uint64_t key = 0;    // name index in the workload's corpus
  int64_t dep = -1;    // lane slot that must complete before this op is sent
};

enum class Kind { kLrcReadZipf, kRliBloom100 };

/// Fixed parameters of one workload. The offered rate is a constant: it
/// is never derived from a measured peak.
struct Spec {
  const char* name;
  Kind kind;
  const char* transport;  // net::MakeTransport URI
  uint64_t catalog;       // mappings preloaded into the LRC
  double offered_rate;    // open-loop ops/s over all client connections
  int setups;             // set-ups timed for setup_s (median)
};

/// The workload called `name`, or nullptr.
const Spec* FindSpec(const std::string& name);

constexpr int kLanes = 4;                  // client connections
constexpr int kSyntheticLrcs = 99;         // resident filters besides the real LRC
constexpr uint64_t kFilterNames = 100000;  // names per synthetic LRC filter

/// The op mix, the request codec and the answer check of one workload.
class RlsWorkload {
 public:
  RlsWorkload(const Spec& spec, uint64_t seed);

  static constexpr const char* kLrcAddress = "lrc";
  static constexpr const char* kRliAddress = "rli";
  static constexpr const char* kCombinedAddress = "rls";

  const Spec& spec() const { return spec_; }
  const std::string& corpus() const { return corpus_; }
  const std::string& fresh_corpus() const { return fresh_corpus_; }
  const std::vector<std::string>& lrc_urls() const { return lrc_urls_; }

  /// Builds the synthetic LRC filters (the updates 99 remote LRCs would
  /// have sent); 4 threads.
  void BuildSyntheticFilters();
  const std::vector<bloom::BloomFilter>& filters() const { return filters_; }

  /// RLI query names in the workload's 80/20 mix (ladder probes).
  std::vector<std::string> RliProbes(uint64_t seed, std::size_t n) const;

  /// With roles on (the open loop) each connection carries one class of
  /// calls: the last one the writes, the others the queries. A query
  /// then never queues behind a write on its connection's server thread.
  /// With roles off (the closed loop) every connection sends the whole
  /// mix. Set between phases only.
  void SetLaneRoles(bool on) { roles_ = on; }

  /// Draws one independent unit of work: a single op, or a chain whose
  /// ops must run in order (each depends on the one before it).
  void DrawChain(rlscommon::Xoshiro256& rng, uint32_t lane, std::vector<Op>* chain);

  /// Share of the offered open-loop rate lane `lane` of `lanes` carries.
  double LaneShare(uint32_t lane, uint32_t lanes) const;

  void Encode(const Op& op, uint16_t* opcode, std::string* payload) const;

  /// Checks one answer against the model. Runs on the client's receiver
  /// thread, so it must be cheap; `detail` keeps what Verify needs.
  bool Check(const Op& op, const rlscommon::Status& status, const std::string& response,
             uint64_t detail[2]) const;

  /// Whether Verify checks more than Check did (RLI queries).
  static bool HasExactCheck(const Op& op) {
    return op.type == OpType::kRliQuery || op.type == OpType::kRliQueryAbsent;
  }

  /// Exact check of an RLI answer, run after the phase, off the hot path:
  /// the synthetic LRCs named must be exactly those whose filter claims
  /// the name (false positives included). The real LRC's filter changes
  /// with the writes, so it is only checked for its own names (in Check).
  bool Verify(const Op& op, const uint64_t detail[2]) const;

 private:
  std::string NameOf(const Op& op) const;
  Op DrawRliQuery(rlscommon::Xoshiro256& rng) const;
  uint64_t ZipfKey(rlscommon::Xoshiro256& rng) const;
  void PushPair(uint32_t lane, std::vector<Op>* chain);

  static constexpr uint64_t kPermMul = 1000003;  // prime, coprime with the catalog
  static constexpr uint32_t kWriteLane = kLanes - 1;

  const Spec& spec_;
  std::string corpus_, absent_corpus_, fresh_corpus_;
  std::vector<uint64_t> fresh_next_;  // per lane; touched only by its generator
  std::vector<double> zipf_cdf_;
  uint64_t perm_add_ = 0;
  std::vector<std::string> lrc_urls_;       // rli_bloom_100: index -> LRC url
  std::vector<std::string> owner_corpora_;  // rli_bloom_100: index -> name corpus
  std::unordered_map<std::string, int> url_index_;
  std::vector<bloom::BloomFilter> filters_;
  bool roles_ = false;
};

}  // namespace perfbench
