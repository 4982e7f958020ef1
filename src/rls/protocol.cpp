#include "rls/protocol.h"

namespace rls {

using net::Reader;
using net::TruncatedMessage;
using net::Writer;
using rlscommon::Status;

std::string OpName(uint16_t opcode) {
  const OpSpec* op = FindOp(opcode);
  return std::string(op ? op->name : "unknown");
}

void AttrValue::Encode(Writer* w) const {
  w->U8(static_cast<uint8_t>(type));
  switch (type) {
    case AttrType::kString:
      w->Str(string_value);
      break;
    case AttrType::kInt:
    case AttrType::kDate:
      w->I64(int_value);
      break;
    case AttrType::kFloat:
      w->F64(float_value);
      break;
  }
}

bool AttrValue::Decode(Reader* r, AttrValue* out) {
  uint8_t type = 0;
  if (!r->U8(&type) || type > static_cast<uint8_t>(AttrType::kDate)) return false;
  out->type = static_cast<AttrType>(type);
  switch (out->type) {
    case AttrType::kString:
      return r->Str(&out->string_value);
    case AttrType::kInt:
    case AttrType::kDate:
      return r->I64(&out->int_value);
    case AttrType::kFloat:
      return r->F64(&out->float_value);
  }
  return false;
}

std::string AttrValue::ToString() const {
  switch (type) {
    case AttrType::kString: return string_value;
    case AttrType::kInt: return std::to_string(int_value);
    case AttrType::kDate: return std::to_string(int_value) + "us";
    case AttrType::kFloat: return std::to_string(float_value);
  }
  return "?";
}

void MappingRequest::Encode(std::string* out) const {
  Writer w(out);
  w.U32(static_cast<uint32_t>(mappings.size()));
  for (const Mapping& m : mappings) {
    w.Str(m.logical);
    w.Str(m.target);
  }
}

Status MappingRequest::Decode(std::string_view data, MappingRequest* out) {
  Reader r(data);
  uint32_t count = 0;
  if (!r.U32(&count)) return TruncatedMessage("mapping count");
  if (static_cast<uint64_t>(count) * 8 > r.remaining()) {
    return TruncatedMessage("mapping list");
  }
  out->mappings.clear();
  out->mappings.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Mapping m;
    if (!r.Str(&m.logical) || !r.Str(&m.target)) return TruncatedMessage("mapping");
    out->mappings.push_back(std::move(m));
  }
  return Status::Ok();
}

void NameQueryRequest::Encode(std::string* out) const {
  Writer w(out);
  w.Str(name);
  w.U32(offset);
  w.U32(limit);
}

Status NameQueryRequest::Decode(std::string_view data, NameQueryRequest* out) {
  Reader r(data);
  if (!r.Str(&out->name) || !r.U32(&out->offset) || !r.U32(&out->limit)) {
    return TruncatedMessage("name query");
  }
  return Status::Ok();
}

void BulkQueryRequest::Encode(std::string* out) const {
  Writer w(out);
  w.StrVec(names);
}

Status BulkQueryRequest::Decode(std::string_view data, BulkQueryRequest* out) {
  Reader r(data);
  if (!r.StrVec(&out->names)) return TruncatedMessage("bulk query names");
  return Status::Ok();
}

void StringListResponse::Encode(std::string* out) const {
  Writer w(out);
  w.StrVec(values);
}

Status StringListResponse::Decode(std::string_view data, StringListResponse* out) {
  Reader r(data);
  if (!r.StrVec(&out->values)) return TruncatedMessage("string list");
  return Status::Ok();
}

void MappingListResponse::Encode(std::string* out) const {
  Writer w(out);
  w.U32(static_cast<uint32_t>(mappings.size()));
  for (const Mapping& m : mappings) {
    w.Str(m.logical);
    w.Str(m.target);
  }
}

Status MappingListResponse::Decode(std::string_view data, MappingListResponse* out) {
  Reader r(data);
  uint32_t count = 0;
  if (!r.U32(&count)) return TruncatedMessage("mapping list count");
  if (static_cast<uint64_t>(count) * 8 > r.remaining()) {
    return TruncatedMessage("mapping list");
  }
  out->mappings.clear();
  out->mappings.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Mapping m;
    if (!r.Str(&m.logical) || !r.Str(&m.target)) return TruncatedMessage("mapping");
    out->mappings.push_back(std::move(m));
  }
  return Status::Ok();
}

void BulkStatusResponse::Encode(std::string* out) const {
  Writer w(out);
  w.U32(succeeded);
  w.U32(static_cast<uint32_t>(failures.size()));
  for (const BulkResult& f : failures) {
    w.U32(f.index);
    w.U8(static_cast<uint8_t>(f.code));
  }
}

Status BulkStatusResponse::Decode(std::string_view data, BulkStatusResponse* out) {
  Reader r(data);
  uint32_t count = 0;
  if (!r.U32(&out->succeeded) || !r.U32(&count)) {
    return TruncatedMessage("bulk status header");
  }
  if (static_cast<uint64_t>(count) * 5 > r.remaining()) {
    return TruncatedMessage("bulk status list");
  }
  out->failures.clear();
  out->failures.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BulkResult f;
    uint8_t code = 0;
    if (!r.U32(&f.index) || !r.U8(&code)) return TruncatedMessage("bulk status");
    f.code = static_cast<rlscommon::ErrorCode>(code);
    out->failures.push_back(f);
  }
  return Status::Ok();
}

void AttrDefineRequest::Encode(std::string* out) const {
  Writer w(out);
  w.Str(name);
  w.U8(static_cast<uint8_t>(object));
  w.U8(static_cast<uint8_t>(type));
}

Status AttrDefineRequest::Decode(std::string_view data, AttrDefineRequest* out) {
  Reader r(data);
  uint8_t object = 0, type = 0;
  if (!r.Str(&out->name) || !r.U8(&object) || !r.U8(&type)) {
    return TruncatedMessage("attr define");
  }
  if (object > 1 || type > 3) return Status::Protocol("bad attr enum");
  out->object = static_cast<AttrObject>(object);
  out->type = static_cast<AttrType>(type);
  return Status::Ok();
}

void AttrValueRequest::Encode(std::string* out) const {
  Writer w(out);
  w.Str(object_name);
  w.Str(attr_name);
  w.U8(static_cast<uint8_t>(object));
  value.Encode(&w);
}

Status AttrValueRequest::Decode(std::string_view data, AttrValueRequest* out) {
  Reader r(data);
  uint8_t object = 0;
  if (!r.Str(&out->object_name) || !r.Str(&out->attr_name) || !r.U8(&object) ||
      object > 1 || !AttrValue::Decode(&r, &out->value)) {
    return TruncatedMessage("attr value request");
  }
  out->object = static_cast<AttrObject>(object);
  return Status::Ok();
}

void BulkAttrRequest::Encode(std::string* out) const {
  Writer w(out);
  w.U32(static_cast<uint32_t>(items.size()));
  for (const AttrValueRequest& item : items) item.Encode(out);
}

Status BulkAttrRequest::Decode(std::string_view data, BulkAttrRequest* out) {
  Reader r(data);
  uint32_t count = 0;
  if (!r.U32(&count)) return TruncatedMessage("bulk attr count");
  if (static_cast<uint64_t>(count) * 10 > r.remaining()) {
    return TruncatedMessage("bulk attr list");
  }
  out->items.clear();
  out->items.reserve(count);
  std::string_view rest = r.Rest();
  for (uint32_t i = 0; i < count; ++i) {
    // Decode one item by re-wrapping the remaining bytes.
    Reader item_reader(rest);
    AttrValueRequest item;
    uint8_t object = 0;
    if (!item_reader.Str(&item.object_name) || !item_reader.Str(&item.attr_name) ||
        !item_reader.U8(&object) || object > 1 ||
        !AttrValue::Decode(&item_reader, &item.value)) {
      return TruncatedMessage("bulk attr item");
    }
    item.object = static_cast<AttrObject>(object);
    out->items.push_back(std::move(item));
    rest = item_reader.Rest();
  }
  return Status::Ok();
}

void AttrSearchRequest::Encode(std::string* out) const {
  Writer w(out);
  w.Str(attr_name);
  w.U8(static_cast<uint8_t>(object));
  w.U8(static_cast<uint8_t>(cmp));
  value.Encode(&w);
}

Status AttrSearchRequest::Decode(std::string_view data, AttrSearchRequest* out) {
  Reader r(data);
  uint8_t object = 0, cmp = 0;
  if (!r.Str(&out->attr_name) || !r.U8(&object) || object > 1 || !r.U8(&cmp) ||
      cmp > 5 || !AttrValue::Decode(&r, &out->value)) {
    return TruncatedMessage("attr search");
  }
  out->object = static_cast<AttrObject>(object);
  out->cmp = static_cast<AttrCmp>(cmp);
  return Status::Ok();
}

void AttrListResponse::Encode(std::string* out) const {
  Writer w(out);
  w.U32(static_cast<uint32_t>(attributes.size()));
  for (const Attribute& a : attributes) {
    w.Str(a.name);
    w.U8(static_cast<uint8_t>(a.object));
    a.value.Encode(&w);
  }
}

Status AttrListResponse::Decode(std::string_view data, AttrListResponse* out) {
  Reader r(data);
  uint32_t count = 0;
  if (!r.U32(&count)) return TruncatedMessage("attr list count");
  if (static_cast<uint64_t>(count) * 6 > r.remaining()) {
    return TruncatedMessage("attr list");
  }
  out->attributes.clear();
  out->attributes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Attribute a;
    uint8_t object = 0;
    if (!r.Str(&a.name) || !r.U8(&object) || object > 1 ||
        !AttrValue::Decode(&r, &a.value)) {
      return TruncatedMessage("attr list item");
    }
    a.object = static_cast<AttrObject>(object);
    out->attributes.push_back(std::move(a));
  }
  return Status::Ok();
}

void FullUpdateBegin::Encode(std::string* out) const {
  Writer w(out);
  w.Str(lrc_url);
  w.U64(update_id);
  w.U64(total_names);
  w.I64(sent_micros);
}

Status FullUpdateBegin::Decode(std::string_view data, FullUpdateBegin* out) {
  Reader r(data);
  if (!r.Str(&out->lrc_url) || !r.U64(&out->update_id) ||
      !r.U64(&out->total_names) || !r.I64(&out->sent_micros)) {
    return TruncatedMessage("full update begin");
  }
  return Status::Ok();
}

void FullUpdateChunk::Encode(std::string* out) const {
  Writer w(out);
  w.Str(lrc_url);
  w.U64(update_id);
  w.StrVec(names);
}

Status FullUpdateChunk::Decode(std::string_view data, FullUpdateChunk* out) {
  Reader r(data);
  if (!r.Str(&out->lrc_url) || !r.U64(&out->update_id) || !r.StrVec(&out->names)) {
    return TruncatedMessage("full update chunk");
  }
  return Status::Ok();
}

void FullUpdateEnd::Encode(std::string* out) const {
  Writer w(out);
  w.Str(lrc_url);
  w.U64(update_id);
}

Status FullUpdateEnd::Decode(std::string_view data, FullUpdateEnd* out) {
  Reader r(data);
  if (!r.Str(&out->lrc_url) || !r.U64(&out->update_id)) {
    return TruncatedMessage("full update end");
  }
  return Status::Ok();
}

void IncrementalUpdate::Encode(std::string* out) const {
  Writer w(out);
  w.Str(lrc_url);
  w.StrVec(added);
  w.StrVec(removed);
  w.I64(sent_micros);
}

Status IncrementalUpdate::Decode(std::string_view data, IncrementalUpdate* out) {
  Reader r(data);
  if (!r.Str(&out->lrc_url) || !r.StrVec(&out->added) ||
      !r.StrVec(&out->removed) || !r.I64(&out->sent_micros)) {
    return TruncatedMessage("incremental update");
  }
  return Status::Ok();
}

void BloomUpdate::Encode(std::string* out) const {
  Writer w(out);
  w.Str(lrc_url);
  w.Str(filter_bytes);
  w.I64(sent_micros);
}

Status BloomUpdate::Decode(std::string_view data, BloomUpdate* out) {
  Reader r(data);
  if (!r.Str(&out->lrc_url) || !r.Str(&out->filter_bytes) ||
      !r.I64(&out->sent_micros)) {
    return TruncatedMessage("bloom update");
  }
  return Status::Ok();
}

void TargetStatus::Encode(Writer* w) const {
  w->Str(address);
  w->U64(updates_sent);
  w->F64(seconds_since_last);
  w->U8(healthy ? 1 : 0);
  w->U32(consecutive_failures);
  w->U64(full_resends);
}

bool TargetStatus::Decode(Reader* r, TargetStatus* out) {
  uint8_t healthy = 1;
  if (!(r->Str(&out->address) && r->U64(&out->updates_sent) &&
        r->F64(&out->seconds_since_last) && r->U8(&healthy) &&
        r->U32(&out->consecutive_failures) && r->U64(&out->full_resends))) {
    return false;
  }
  out->healthy = healthy != 0;
  return true;
}

void GetStatsResponse::Encode(std::string* out) const {
  Writer w(out);
  w.Str(role);
  w.F64(uptime_seconds);
  w.Str(build_flags);
  w.U64(vitals.lfn_count);
  w.U64(vitals.mapping_count);
  w.U64(vitals.requests_served);
  w.U64(vitals.updates_received);
  w.U64(vitals.updates_sent);
  w.U64(vitals.bloom_filters);
  w.U64(vitals.requests_shed);
  w.U64(last_update_trace_id);
  w.U64(trace_depth);
  w.U64(trace_dropped);
  w.U64(trace_capacity);
  w.U8(wal.enabled);
  w.U64(wal.recovered_txns);
  w.U64(wal.records_applied);
  w.U64(wal.snapshot_rows);
  w.U64(wal.torn_tail_bytes);
  w.U64(wal.checksum_failures);
  w.U64(wal.last_lsn);
  w.U64(wal.recover_micros);
  w.U8(wal.group_commit);
  w.U64(wal.commits);
  w.U64(wal.syncs);
  w.U64(wal.group_commits);
  w.U32(static_cast<uint32_t>(targets.size()));
  for (const TargetStatus& t : targets) t.Encode(&w);
  w.U32(static_cast<uint32_t>(metrics.size()));
  for (const MetricSample& m : metrics) {
    w.Str(m.name);
    w.Str(m.labels);
    w.U8(m.kind);
    w.F64(m.value);
    w.U64(m.count);
    w.F64(m.mean_us);
    w.U64(m.p50_us);
    w.U64(m.p95_us);
    w.U64(m.p99_us);
    w.U64(m.p999_us);
    w.U64(m.max_us);
    w.U64(m.exemplar_us);
    w.U64(m.exemplar_trace);
  }
}

Status GetStatsResponse::Decode(std::string_view data, GetStatsResponse* out) {
  Reader r(data);
  if (!r.Str(&out->role) || !r.F64(&out->uptime_seconds) ||
      !r.Str(&out->build_flags) ||
      !r.U64(&out->vitals.lfn_count) || !r.U64(&out->vitals.mapping_count) ||
      !r.U64(&out->vitals.requests_served) ||
      !r.U64(&out->vitals.updates_received) ||
      !r.U64(&out->vitals.updates_sent) || !r.U64(&out->vitals.bloom_filters) ||
      !r.U64(&out->vitals.requests_shed) ||
      !r.U64(&out->last_update_trace_id) || !r.U64(&out->trace_depth) ||
      !r.U64(&out->trace_dropped) || !r.U64(&out->trace_capacity)) {
    return TruncatedMessage("get stats header");
  }
  if (!r.U8(&out->wal.enabled) || !r.U64(&out->wal.recovered_txns) ||
      !r.U64(&out->wal.records_applied) || !r.U64(&out->wal.snapshot_rows) ||
      !r.U64(&out->wal.torn_tail_bytes) ||
      !r.U64(&out->wal.checksum_failures) || !r.U64(&out->wal.last_lsn) ||
      !r.U64(&out->wal.recover_micros) || !r.U8(&out->wal.group_commit) ||
      !r.U64(&out->wal.commits) || !r.U64(&out->wal.syncs) ||
      !r.U64(&out->wal.group_commits)) {
    return TruncatedMessage("get stats wal recovery status");
  }
  uint32_t target_count = 0;
  if (!r.U32(&target_count)) return TruncatedMessage("target count");
  if (static_cast<uint64_t>(target_count) * 33 > r.remaining()) {
    return TruncatedMessage("target list");
  }
  out->targets.clear();
  out->targets.reserve(target_count);
  for (uint32_t i = 0; i < target_count; ++i) {
    TargetStatus t;
    if (!TargetStatus::Decode(&r, &t)) return TruncatedMessage("target status");
    out->targets.push_back(std::move(t));
  }
  uint32_t metric_count = 0;
  if (!r.U32(&metric_count)) return TruncatedMessage("metric count");
  if (static_cast<uint64_t>(metric_count) * 89 > r.remaining()) {
    return TruncatedMessage("metric list");
  }
  out->metrics.clear();
  out->metrics.reserve(metric_count);
  for (uint32_t i = 0; i < metric_count; ++i) {
    MetricSample m;
    if (!r.Str(&m.name) || !r.Str(&m.labels) || !r.U8(&m.kind) ||
        !r.F64(&m.value) || !r.U64(&m.count) || !r.F64(&m.mean_us) ||
        !r.U64(&m.p50_us) || !r.U64(&m.p95_us) || !r.U64(&m.p99_us) ||
        !r.U64(&m.p999_us) || !r.U64(&m.max_us) || !r.U64(&m.exemplar_us) ||
        !r.U64(&m.exemplar_trace)) {
      return TruncatedMessage("metric sample");
    }
    out->metrics.push_back(std::move(m));
  }
  return Status::Ok();
}

void GetTracesRequest::Encode(std::string* out) const {
  Writer w(out);
  w.U64(trace_id);
  w.Str(method);
  w.Str(component);
  w.U64(min_duration_us);
  w.U32(limit);
  w.U8(source);
}

Status GetTracesRequest::Decode(std::string_view data, GetTracesRequest* out) {
  Reader r(data);
  if (!r.U64(&out->trace_id) || !r.Str(&out->method) ||
      !r.Str(&out->component) || !r.U64(&out->min_duration_us) ||
      !r.U32(&out->limit) || !r.U8(&out->source)) {
    return TruncatedMessage("get traces request");
  }
  return Status::Ok();
}

void GetTracesResponse::Encode(std::string* out) const {
  Writer w(out);
  w.U64(depth);
  w.U64(dropped);
  w.U64(capacity);
  w.U32(static_cast<uint32_t>(spans.size()));
  for (const TraceSpan& s : spans) {
    w.Str(s.component);
    w.Str(s.name);
    w.U64(s.trace_id);
    w.U64(s.span_id);
    w.U32(s.tid);
    w.I64(s.start_us);
    w.U64(s.duration_us);
    w.U32(static_cast<uint32_t>(s.hops.size()));
    for (const TraceHop& h : s.hops) {
      w.Str(h.name);
      w.U64(h.offset_us);
    }
  }
}

Status GetTracesResponse::Decode(std::string_view data, GetTracesResponse* out) {
  Reader r(data);
  if (!r.U64(&out->depth) || !r.U64(&out->dropped) || !r.U64(&out->capacity)) {
    return TruncatedMessage("get traces header");
  }
  uint32_t span_count = 0;
  if (!r.U32(&span_count)) return TruncatedMessage("span count");
  // Each span is at least 44 bytes (4+4 string lengths, 3x u64, u32,
  // i64, u32 hop count); reject counts the payload cannot hold.
  if (static_cast<uint64_t>(span_count) * 44 > r.remaining()) {
    return TruncatedMessage("span list");
  }
  out->spans.clear();
  out->spans.reserve(span_count);
  for (uint32_t i = 0; i < span_count; ++i) {
    TraceSpan s;
    uint32_t hop_count = 0;
    if (!r.Str(&s.component) || !r.Str(&s.name) || !r.U64(&s.trace_id) ||
        !r.U64(&s.span_id) || !r.U32(&s.tid) || !r.I64(&s.start_us) ||
        !r.U64(&s.duration_us) || !r.U32(&hop_count)) {
      return TruncatedMessage("trace span");
    }
    if (static_cast<uint64_t>(hop_count) * 12 > r.remaining()) {
      return TruncatedMessage("hop list");
    }
    s.hops.reserve(hop_count);
    for (uint32_t h = 0; h < hop_count; ++h) {
      TraceHop hop;
      if (!r.Str(&hop.name) || !r.U64(&hop.offset_us)) {
        return TruncatedMessage("trace hop");
      }
      s.hops.push_back(std::move(hop));
    }
    out->spans.push_back(std::move(s));
  }
  return Status::Ok();
}

}  // namespace rls
