#include "workload.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "catalog.h"
#include "rls/protocol.h"

namespace perfbench {

using rlscommon::ErrorCode;
using rlscommon::Status;

namespace {

constexpr Spec kSpecs[] = {
    {"lrc_read_zipf", Kind::kLrcReadZipf, "tcp://127.0.0.1", 1000000, 30000, 3},
    {"rli_bloom_100", Kind::kRliBloom100, "inproc", 100000, 40000, 9},
};

}  // namespace

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

OpClass ClassOf(OpType type) {
  switch (type) {
    case OpType::kCreate:
    case OpType::kDelete:
      return OpClass::kWrite;
    case OpType::kPing:
      return OpClass::kPing;
    default:
      return OpClass::kRead;
  }
}

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kQuery: return "lrc_query";
    case OpType::kQueryAbsent: return "lrc_query_absent";
    case OpType::kCreate: return "lrc_create";
    case OpType::kDelete: return "lrc_delete";
    case OpType::kRliQuery: return "rli_query";
    case OpType::kRliQueryAbsent: return "rli_query_absent";
    case OpType::kPing: return "ping";
  }
  return "unknown";
}

RlsWorkload::RlsWorkload(const Spec& spec, uint64_t seed)
    : spec_(spec),
      corpus_("lrc.s" + std::to_string(seed)),
      absent_corpus_("absent.s" + std::to_string(seed)),
      fresh_corpus_("fresh.s" + std::to_string(seed)),
      fresh_next_(kLanes, 0) {
  if (spec.kind == Kind::kLrcReadZipf) {
    // Zipf(0.99) over ranks; rank r names catalog entry
    // (r * mul + add) mod catalog, so hot names are spread out.
    zipf_cdf_.reserve(spec.catalog);
    double total = 0;
    for (uint64_t r = 0; r < spec.catalog; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    perm_add_ = rlscommon::Xoshiro256(seed).Below(spec.catalog);
  }
  if (spec.kind == Kind::kRliBloom100) {
    for (int j = 0; j < kSyntheticLrcs; ++j) {
      lrc_urls_.push_back("lrc-" + std::to_string(j) + ".grid.example");
      owner_corpora_.push_back("site" + std::to_string(j) + ".s" + std::to_string(seed));
    }
    lrc_urls_.push_back(kCombinedAddress);
    owner_corpora_.push_back(corpus_);
    for (std::size_t j = 0; j < lrc_urls_.size(); ++j) url_index_[lrc_urls_[j]] = j;
  }
}

void RlsWorkload::BuildSyntheticFilters() {
  filters_.resize(kSyntheticLrcs);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t] {
      for (int j = t; j < kSyntheticLrcs; j += 4) {
        bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(kFilterNames);
        for (uint64_t i = 0; i < kFilterNames; ++i) filter.Insert(Lfn(owner_corpora_[j], i));
        filters_[j] = std::move(filter);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

std::vector<std::string> RlsWorkload::RliProbes(uint64_t seed, std::size_t n) const {
  rlscommon::Xoshiro256 rng(seed ^ 0x9b0be5ULL);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(NameOf(DrawRliQuery(rng)));
  return out;
}

/// Op shares: lrc_read_zipf 90% Zipf(0.99) queries, 5% absent queries,
/// 2.5% creates, 2.5% deletes; rli_bloom_100 95% RLI queries (80%
/// registered names, 20% absent), 2.5% creates, 2.5% deletes on the real
/// LRC. Every fresh name is deleted again, so the catalog size holds.
void RlsWorkload::DrawChain(rlscommon::Xoshiro256& rng, uint32_t lane, std::vector<Op>* chain) {
  // Mixed lanes weight the root draws so that op shares match the mix:
  // a write root is a create/delete pair (2 ops) among single queries.
  const bool write = roles_ ? lane == kWriteLane : rng.NextDouble() < 0.05 / 1.95;
  if (write) {
    PushPair(lane, chain);
  } else if (spec_.kind == Kind::kRliBloom100) {
    chain->push_back(DrawRliQuery(rng));
  } else if (rng.NextDouble() < 0.90 / 0.95) {
    chain->push_back(Op{OpType::kQuery, 0, ZipfKey(rng), -1});
  } else {
    chain->push_back(Op{OpType::kQueryAbsent, 0, rng.Below(spec_.catalog), -1});
  }
}

double RlsWorkload::LaneShare(uint32_t lane, uint32_t lanes) const {
  if (!roles_) return 1.0 / lanes;
  constexpr double kWriteShare = 0.05;
  return lane == kWriteLane ? kWriteShare : (1 - kWriteShare) / (lanes - 1);
}

void RlsWorkload::Encode(const Op& op, uint16_t* opcode, std::string* payload) const {
  switch (op.type) {
    case OpType::kQuery:
    case OpType::kQueryAbsent:
    case OpType::kRliQuery:
    case OpType::kRliQueryAbsent: {
      *opcode = op.type == OpType::kRliQuery || op.type == OpType::kRliQueryAbsent
                    ? rls::kRliQueryLfn
                    : rls::kLrcQueryLfn;
      rls::NameQueryRequest request;
      request.name = NameOf(op);
      request.Encode(payload);
      return;
    }
    case OpType::kCreate:
    case OpType::kDelete: {
      *opcode = op.type == OpType::kCreate ? rls::kLrcCreate : rls::kLrcDelete;
      rls::MappingRequest request;
      request.mappings.push_back(
          rls::Mapping{Lfn(fresh_corpus_, op.key), Pfn(fresh_corpus_, op.key, 0)});
      request.Encode(payload);
      return;
    }
    case OpType::kPing:
      *opcode = rls::kPing;
      payload->clear();
      return;
  }
}

bool RlsWorkload::Check(const Op& op, const Status& status, const std::string& response,
                        uint64_t detail[2]) const {
  switch (op.type) {
    case OpType::kQuery: {
      rls::StringListResponse answer;
      return status.ok() && rls::StringListResponse::Decode(response, &answer).ok() &&
             answer.values.size() == 1 && answer.values[0] == Pfn(corpus_, op.key, 0);
    }
    case OpType::kQueryAbsent:
      return status.code() == ErrorCode::kNotFound;
    case OpType::kRliQuery:
    case OpType::kRliQueryAbsent: {
      if (status.code() == ErrorCode::kNotFound) return op.type == OpType::kRliQueryAbsent;
      rls::StringListResponse answer;
      if (!status.ok() || !rls::StringListResponse::Decode(response, &answer).ok()) {
        return false;
      }
      for (const std::string& url : answer.values) {
        auto it = url_index_.find(url);
        if (it == url_index_.end()) return false;
        detail[it->second / 64] |= uint64_t{1} << (it->second % 64);
      }
      // No false negatives: a registered name's owner must answer.
      return op.type == OpType::kRliQueryAbsent ||
             ((detail[op.owner / 64] >> (op.owner % 64)) & 1) != 0;
    }
    default:
      return status.ok();
  }
}

bool RlsWorkload::Verify(const Op& op, const uint64_t detail[2]) const {
  if (!HasExactCheck(op)) return true;
  const bloom::HashPair hash = bloom::HashKey(NameOf(op));
  uint64_t expected[2] = {0, 0};
  for (int j = 0; j < kSyntheticLrcs; ++j) {
    if (filters_[j].ContainsHashed(hash)) expected[j / 64] |= uint64_t{1} << (j % 64);
  }
  const int real = kSyntheticLrcs;
  uint64_t got[2] = {detail[0], detail[1]};
  got[real / 64] &= ~(uint64_t{1} << (real % 64));
  return got[0] == expected[0] && got[1] == expected[1];
}

std::string RlsWorkload::NameOf(const Op& op) const {
  switch (op.type) {
    case OpType::kQuery: return Lfn(corpus_, op.key);
    case OpType::kQueryAbsent:
    case OpType::kRliQueryAbsent: return Lfn(absent_corpus_, op.key);
    case OpType::kRliQuery: return Lfn(owner_corpora_[op.owner], op.key);
    default: return Lfn(fresh_corpus_, op.key);
  }
}

Op RlsWorkload::DrawRliQuery(rlscommon::Xoshiro256& rng) const {
  if (rng.NextDouble() < 0.80) {
    const uint32_t owner = static_cast<uint32_t>(rng.Below(lrc_urls_.size()));
    return Op{OpType::kRliQuery, owner, rng.Below(kFilterNames), -1};
  }
  return Op{OpType::kRliQueryAbsent, 0, rng.Below(1ull << 40), -1};
}

uint64_t RlsWorkload::ZipfKey(rlscommon::Xoshiro256& rng) const {
  const double u = rng.NextDouble();
  const uint64_t rank = static_cast<uint64_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
  const uint64_t r = std::min<uint64_t>(rank, spec_.catalog - 1);
  return (r * kPermMul + perm_add_) % spec_.catalog;
}

void RlsWorkload::PushPair(uint32_t lane, std::vector<Op>* chain) {
  const uint64_t key = (uint64_t{lane} << 40) + fresh_next_[lane]++;
  chain->push_back(Op{OpType::kCreate, 0, key, -1});
  chain->push_back(Op{OpType::kDelete, 0, key, -1});
}

}  // namespace perfbench
