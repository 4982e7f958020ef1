// RLS wire protocol: opcodes, request/response messages and the
// operation table that ties them together.
//
// Every client operation of Table 1 has an opcode; soft-state updates
// (uncompressed full, incremental/immediate, Bloom-compressed) have their
// own opcode family. Full updates stream in chunks so the link model
// charges realistic per-message costs for large catalogs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "gsi/gsi.h"
#include "net/codec.h"
#include "rls/types.h"

namespace rls {

enum Op : uint16_t {
  kPing = 1,
  kServerGetStats = 4,  // full introspection snapshot
  kServerGetTraces = 5, // flight-recorder dump

  // --- LRC mapping management (Table 1) ---
  kLrcCreate = 10,      // create lfn and its first mapping
  kLrcAdd = 11,         // add another target to an existing lfn
  kLrcDelete = 12,      // delete one {lfn, target} mapping
  kLrcBulkCreate = 13,
  kLrcBulkAdd = 14,
  kLrcBulkDelete = 15,

  // --- LRC queries ---
  kLrcQueryLfn = 20,          // targets for a logical name
  kLrcQueryPfn = 21,          // logical names for a target
  kLrcBulkQueryLfn = 22,
  kLrcWildcardQueryLfn = 23,  // glob over logical names
  kLrcExists = 24,

  // --- LRC attribute management ---
  kLrcAttrDefine = 30,
  kLrcAttrAdd = 31,
  kLrcAttrModify = 32,
  kLrcAttrDelete = 33,
  kLrcAttrQueryObj = 34,   // all attributes of one object
  kLrcAttrSearch = 35,     // objects whose attribute compares to a value
  kLrcBulkAttrAdd = 36,
  kLrcBulkAttrDelete = 37,
  kLrcAttrUndefine = 38,

  // --- LRC management ---
  kLrcRliList = 40,     // RLIs updated by this LRC
  kLrcRliAdd = 41,
  kLrcRliRemove = 42,
  kLrcForceUpdate = 43, // trigger an immediate soft-state update round

  // --- RLI queries ---
  kRliQueryLfn = 50,       // LRC urls holding mappings for an lfn
  kRliBulkQuery = 51,
  kRliWildcardQuery = 52,  // unsupported on Bloom RLIs (paper §5.4)
  kRliLrcList = 53,        // LRCs updating this RLI

  // --- soft-state updates (LRC -> RLI, and RLI -> RLI hierarchy) ---
  kSsFullBegin = 60,
  kSsFullChunk = 61,
  kSsFullEnd = 62,
  kSsIncremental = 63,
  kSsBloom = 64,
};

/// Server role an operation needs enabled.
enum class OpRole : uint8_t { kAny, kLrc, kRli };

/// An operation's opcode, method name (the `method` metric label) and
/// the ACL privilege it requires (paper §3.1). Its role and admission
/// lane follow from the privilege (DESIGN.md §9).
struct OpSpec {
  Op opcode;
  std::string_view name;
  std::optional<gsi::Privilege> privilege;  // none: ping

  /// Priority lane: never charged to a tenant bucket and drained first.
  /// These are the flows whose loss turns a local overload into a global
  /// one: soft-state updates (an RLI that stops receiving them expires
  /// its whole index), admin operations (the operator's only lever during
  /// an incident) and monitoring probes.
  constexpr bool priority() const {
    return !privilege || *privilege == gsi::Privilege::kAdmin ||
           *privilege == gsi::Privilege::kStats ||
           *privilege == gsi::Privilege::kRliWrite;
  }

  /// lrc_* and admin need the LRC role, rli_* the RLI role; stats and
  /// ping run on any server.
  constexpr OpRole role() const {
    if (!privilege || *privilege == gsi::Privilege::kStats) return OpRole::kAny;
    return *privilege == gsi::Privilege::kRliRead ||
                   *privilege == gsi::Privilege::kRliWrite
               ? OpRole::kRli
               : OpRole::kLrc;
  }
};

// ---------------------------------------------------------------------
// Request/response structs. Each lists its fields once, in wire order;
// net/codec.h derives Encode (append to a payload string) and Decode
// (PROTOCOL on malformed input) from that list.
// ---------------------------------------------------------------------

/// The request or reply of an operation that carries no body.
struct NoBody {
  NET_WIRE_MESSAGE(NoBody)
};

/// {lfn, target} pair list — used by create/add/delete and their bulk
/// forms (single ops send one pair).
struct MappingRequest {
  std::vector<Mapping> mappings;

  NET_WIRE_MESSAGE(MappingRequest, mappings)
};

/// Name + flags — queries by logical or target name.
struct NameQueryRequest {
  std::string name;
  uint32_t offset = 0;  // paging for large result sets
  uint32_t limit = 0;   // 0 = unlimited

  NET_WIRE_MESSAGE(NameQueryRequest, name, offset, limit)
};

/// Bulk query: many names at once.
struct BulkQueryRequest {
  std::vector<std::string> names;

  NET_WIRE_MESSAGE(BulkQueryRequest, names)
};

/// List of strings (targets, LRC urls, lfns...).
struct StringListResponse {
  std::vector<std::string> values;

  NET_WIRE_MESSAGE(StringListResponse, values)
};

/// Mapping list (bulk query results, wildcard results).
struct MappingListResponse {
  std::vector<Mapping> mappings;

  NET_WIRE_MESSAGE(MappingListResponse, mappings)
};

/// Per-item outcomes of a bulk mutation.
struct BulkStatusResponse {
  std::vector<BulkResult> failures;  // items not listed succeeded
  uint32_t succeeded = 0;

  // The count goes first on the wire.
  NET_WIRE_MESSAGE(BulkStatusResponse, succeeded, failures)
};

/// Attribute definition (kLrcAttrDefine / kLrcAttrUndefine).
struct AttrDefineRequest {
  std::string name;
  AttrObject object = AttrObject::kLogical;
  AttrType type = AttrType::kString;

  NET_WIRE_MESSAGE(AttrDefineRequest, name, object, type)
};

/// Attribute value ops: attach/modify/delete a value on an object.
struct AttrValueRequest {
  std::string object_name;  // lfn or target name
  std::string attr_name;
  AttrObject object = AttrObject::kLogical;
  AttrValue value;          // ignored for delete

  NET_WIRE_MESSAGE(AttrValueRequest, object_name, attr_name, object, value)
};

/// Bulk attribute add/delete.
struct BulkAttrRequest {
  std::vector<AttrValueRequest> items;

  NET_WIRE_MESSAGE(BulkAttrRequest, items)
};

/// Attribute search: objects where attr <cmp> value.
struct AttrSearchRequest {
  std::string attr_name;
  AttrObject object = AttrObject::kLogical;
  AttrCmp cmp = AttrCmp::kEq;
  AttrValue value;

  NET_WIRE_MESSAGE(AttrSearchRequest, attr_name, object, cmp, value)
};

/// Attributes of one object (kLrcAttrQueryObj response).
struct AttrListResponse {
  std::vector<Attribute> attributes;

  NET_WIRE_MESSAGE(AttrListResponse, attributes)
};

/// Soft-state full update framing. `sent_micros` is the sender's
/// monotonic send timestamp, letting the receiver histogram the
/// summarize->receive lag of each update mode.
struct FullUpdateBegin {
  std::string lrc_url;
  uint64_t update_id = 0;
  uint64_t total_names = 0;
  int64_t sent_micros = 0;

  NET_WIRE_MESSAGE(FullUpdateBegin, lrc_url, update_id, total_names, sent_micros)
};

struct FullUpdateChunk {
  std::string lrc_url;
  uint64_t update_id = 0;
  std::vector<std::string> names;

  NET_WIRE_MESSAGE(FullUpdateChunk, lrc_url, update_id, names)
};

struct FullUpdateEnd {
  std::string lrc_url;
  uint64_t update_id = 0;

  NET_WIRE_MESSAGE(FullUpdateEnd, lrc_url, update_id)
};

/// Immediate-mode incremental update: recent adds and deletes.
struct IncrementalUpdate {
  std::string lrc_url;
  std::vector<std::string> added;
  std::vector<std::string> removed;
  int64_t sent_micros = 0;

  NET_WIRE_MESSAGE(IncrementalUpdate, lrc_url, added, removed, sent_micros)
};

/// Bloom-compressed update: the serialized filter summarizing the LRC.
struct BloomUpdate {
  std::string lrc_url;
  std::string filter_bytes;  // bloom::BloomFilter::Serialize output
  int64_t sent_micros = 0;

  NET_WIRE_MESSAGE(BloomUpdate, lrc_url, filter_bytes, sent_micros)
};

// ---------------------------------------------------------------------
// Introspection (kServerGetStats), the one stats RPC. Wire form of the
// obs::Registry samples.
// ---------------------------------------------------------------------

/// One registry instrument. `kind` mirrors obs::MetricKind (0=counter,
/// 1=gauge, 2=histogram); histogram kinds carry the summary fields.
struct MetricSample {
  std::string name;
  std::string labels;  // rendered label list, e.g. method="lrc_add"
  uint8_t kind = 0;
  double value = 0;  // counter / gauge value; a histogram's sample count
  double mean_us = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  uint64_t max_us = 0;
  // Histogram exemplar: trace id of the slowest sample (0 = none) —
  // feed it to GetTraces to pull the matching span from the recorder.
  uint64_t exemplar_us = 0;
  uint64_t exemplar_trace = 0;

  NET_WIRE_FIELDS(name, labels, kind, value, mean_us, p50_us, p95_us,
                  p99_us, p999_us, max_us, exemplar_us, exemplar_trace)
};

/// Per-RLI-target soft-state freshness (LRC/combined servers only).
struct TargetStatus {
  std::string address;
  uint64_t updates_sent = 0;
  double seconds_since_last = -1;  // <0 = never updated
  bool healthy = true;
  uint32_t consecutive_failures = 0;
  uint64_t full_resends = 0;  // recovery resends after failures

  NET_WIRE_FIELDS(address, updates_sent, seconds_since_last, healthy,
                  consecutive_failures, full_resends)
};

/// Full introspection snapshot: who the server is, per-target freshness
/// and every registry instrument. Every count lives in `metrics`, one
/// sample each (obs::SampleValue reads them); the trace id stays a field
/// because 64 bits do not fit a double.
struct GetStatsResponse {
  std::string role;  // "lrc", "rli", "lrc+rli"
  /// Compile-time build description ("release", "debug+tsan", ...) so a
  /// reader knows whether the numbers came from a sanitizer build.
  std::string build_flags;
  uint64_t last_update_trace_id = 0;  // trace of last soft-state update received
  std::vector<TargetStatus> targets;
  std::vector<MetricSample> metrics;

  NET_WIRE_MESSAGE(GetStatsResponse, role, build_flags, last_update_trace_id, targets,
                   metrics)
};

// ---------------------------------------------------------------------
// Flight recorder (kServerGetTraces). Wire form of the span recorder's
// query interface.
// ---------------------------------------------------------------------

/// Where GetTraces reads spans from: the ring buffer or the top-K slow log.
enum class TraceSource : uint8_t { kRing, kSlowLog, kLast = kSlowLog };

/// Filter for the flight-recorder dump; zero/empty fields match all.
struct GetTracesRequest {
  uint64_t trace_id = 0;        // exact trace id (0 = any)
  std::string method;           // exact span name, e.g. "lrc_add"
  std::string component;        // exact component, e.g. "rpc", "update"
  uint64_t min_duration_us = 0;
  uint32_t limit = 0;           // 0 = unlimited
  TraceSource source = TraceSource::kRing;

  NET_WIRE_MESSAGE(GetTracesRequest, trace_id, method, component, min_duration_us,
                   limit, source)
};

/// One named hop: offset from the span start, microseconds.
struct TraceHop {
  std::string name;
  uint64_t offset_us = 0;

  NET_WIRE_FIELDS(name, offset_us)
};

/// One recorded span with its stage decomposition.
struct TraceSpan {
  std::string component;
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint32_t tid = 0;
  int64_t start_us = 0;
  uint64_t duration_us = 0;
  std::vector<TraceHop> hops;

  NET_WIRE_FIELDS(component, name, trace_id, span_id, tid, start_us, duration_us,
                  hops)
};

struct GetTracesResponse {
  uint64_t depth = 0;     // spans held in the recorder
  uint64_t dropped = 0;   // spans lost to wrap-around
  uint64_t capacity = 0;  // 0 = recorder never enabled
  std::vector<TraceSpan> spans;  // newest first (slowest first for slow log)

  NET_WIRE_MESSAGE(GetTracesResponse, depth, dropped, capacity, spans)
};

// ---------------------------------------------------------------------
// The operation table. Each operation is one row: opcode, method name,
// ACL privilege (none: ping), request type and reply type. Everything
// else is derived from the rows: kOpTable and FindOp (dispatch,
// authorization, admission), OpName, and RequestOf/ReplyOf (the server's
// adapter and the client's Invoke<Op>).
// ---------------------------------------------------------------------

/// One row of the operation table.
template <Op Code, typename Req, typename Rep>
struct OpRow : OpSpec {
  static constexpr Op kOpcode = Code;
  using Request = Req;
  using Reply = Rep;

  constexpr OpRow(std::string_view method,
                  std::optional<gsi::Privilege> privilege = std::nullopt)
      : OpSpec{Code, method, privilege} {}
};

inline constexpr auto kOpRows = [] {
  using enum gsi::Privilege;
  return std::tuple{
      OpRow<kPing, NoBody, NoBody>{"ping"},
      OpRow<kServerGetStats, NoBody, GetStatsResponse>{"server_get_stats", kStats},
      OpRow<kServerGetTraces, GetTracesRequest, GetTracesResponse>{"server_get_traces",
                                                                   kStats},
      OpRow<kLrcCreate, MappingRequest, NoBody>{"lrc_create", kLrcWrite},
      OpRow<kLrcAdd, MappingRequest, NoBody>{"lrc_add", kLrcWrite},
      OpRow<kLrcDelete, MappingRequest, NoBody>{"lrc_delete", kLrcWrite},
      OpRow<kLrcBulkCreate, MappingRequest, BulkStatusResponse>{"lrc_bulk_create",
                                                                kLrcWrite},
      OpRow<kLrcBulkAdd, MappingRequest, BulkStatusResponse>{"lrc_bulk_add", kLrcWrite},
      OpRow<kLrcBulkDelete, MappingRequest, BulkStatusResponse>{"lrc_bulk_delete",
                                                                kLrcWrite},
      OpRow<kLrcQueryLfn, NameQueryRequest, StringListResponse>{"lrc_query_lfn", kLrcRead},
      OpRow<kLrcQueryPfn, NameQueryRequest, StringListResponse>{"lrc_query_pfn", kLrcRead},
      OpRow<kLrcBulkQueryLfn, BulkQueryRequest, MappingListResponse>{"lrc_bulk_query_lfn",
                                                                     kLrcRead},
      OpRow<kLrcWildcardQueryLfn, NameQueryRequest, MappingListResponse>{
          "lrc_wildcard_query_lfn", kLrcRead},
      OpRow<kLrcExists, NameQueryRequest, NoBody>{"lrc_exists", kLrcRead},
      OpRow<kLrcAttrDefine, AttrDefineRequest, NoBody>{"lrc_attr_define", kLrcWrite},
      OpRow<kLrcAttrAdd, AttrValueRequest, NoBody>{"lrc_attr_add", kLrcWrite},
      OpRow<kLrcAttrModify, AttrValueRequest, NoBody>{"lrc_attr_modify", kLrcWrite},
      OpRow<kLrcAttrDelete, AttrValueRequest, NoBody>{"lrc_attr_delete", kLrcWrite},
      OpRow<kLrcAttrQueryObj, AttrValueRequest, AttrListResponse>{"lrc_attr_query_obj",
                                                                  kLrcRead},
      OpRow<kLrcAttrSearch, AttrSearchRequest, AttrListResponse>{"lrc_attr_search",
                                                                 kLrcRead},
      OpRow<kLrcBulkAttrAdd, BulkAttrRequest, BulkStatusResponse>{"lrc_bulk_attr_add",
                                                                  kLrcWrite},
      OpRow<kLrcBulkAttrDelete, BulkAttrRequest, BulkStatusResponse>{
          "lrc_bulk_attr_delete", kLrcWrite},
      OpRow<kLrcAttrUndefine, AttrDefineRequest, NoBody>{"lrc_attr_undefine", kLrcWrite},
      OpRow<kLrcRliList, NoBody, StringListResponse>{"lrc_rli_list", kAdmin},
      OpRow<kLrcRliAdd, NameQueryRequest, NoBody>{"lrc_rli_add", kAdmin},
      OpRow<kLrcRliRemove, NameQueryRequest, NoBody>{"lrc_rli_remove", kAdmin},
      OpRow<kLrcForceUpdate, NoBody, NoBody>{"lrc_force_update", kAdmin},
      OpRow<kRliQueryLfn, NameQueryRequest, StringListResponse>{"rli_query_lfn", kRliRead},
      OpRow<kRliBulkQuery, BulkQueryRequest, MappingListResponse>{"rli_bulk_query",
                                                                  kRliRead},
      OpRow<kRliWildcardQuery, NameQueryRequest, MappingListResponse>{
          "rli_wildcard_query", kRliRead},
      OpRow<kRliLrcList, NoBody, StringListResponse>{"rli_lrc_list", kRliRead},
      OpRow<kSsFullBegin, FullUpdateBegin, NoBody>{"ss_full_begin", kRliWrite},
      OpRow<kSsFullChunk, FullUpdateChunk, NoBody>{"ss_full_chunk", kRliWrite},
      OpRow<kSsFullEnd, FullUpdateEnd, NoBody>{"ss_full_end", kRliWrite},
      OpRow<kSsIncremental, IncrementalUpdate, NoBody>{"ss_incremental", kRliWrite},
      OpRow<kSsBloom, BloomUpdate, NoBody>{"ss_bloom", kRliWrite},
  };
}();

/// The rows without their types, in row order.
inline constexpr auto kOpTable = std::apply(
    [](const auto&... row) { return std::array<OpSpec, sizeof...(row)>{row...}; },
    kOpRows);

namespace detail {

/// kOpTable indexed by opcode, so a lookup is one bounds check and one
/// load. kSsBloom is the largest opcode; a row past it or a duplicate
/// row fails the build.
inline constexpr auto kOpIndex = [] {
  std::array<const OpSpec*, kSsBloom + 1> index{};
  for (const OpSpec& op : kOpTable) {
    if (op.opcode >= index.size() || index[op.opcode]) throw "bad kOpTable row";
    index[op.opcode] = &op;
  }
  return index;
}();

/// The kOpRows row of `Code`; an opcode without a row fails the build.
template <Op Code>
using RowOf = std::tuple_element_t<kOpIndex[Code] - kOpTable.data(),
                                   std::remove_const_t<decltype(kOpRows)>>;

}  // namespace detail

/// The table row for an opcode; nullptr for an unknown opcode.
constexpr const OpSpec* FindOp(uint16_t opcode) {
  return opcode < detail::kOpIndex.size() ? detail::kOpIndex[opcode] : nullptr;
}

/// Human-readable opcode name ("lrc_add", "rli_query_lfn"...); used as
/// the `method` metric label. Every unknown opcode renders as "unknown",
/// so hostile opcodes cannot mint new metric series.
std::string OpName(uint16_t opcode);

/// The message types an operation's row names.
template <Op Code>
using RequestOf = typename detail::RowOf<Code>::Request;
template <Op Code>
using ReplyOf = typename detail::RowOf<Code>::Reply;

}  // namespace rls
