#include "rls/client.h"

namespace rls {

using rlscommon::Status;

namespace {

net::ClientOptions ToRpcOptions(const ClientConfig& config) {
  net::ClientOptions options;
  options.credential = config.credential;
  options.link = config.link;
  options.identity = config.identity;
  options.call_timeout = config.call_timeout;
  options.retry = config.retry;
  options.retry_seed = config.retry_seed;
  options.metrics = config.metrics;
  return options;
}

}  // namespace

Status LrcClient::Connect(net::Transport* network, const std::string& address,
                          const ClientConfig& config, std::unique_ptr<LrcClient>* out) {
  std::unique_ptr<net::RpcClient> rpc;
  Status s = net::RpcClient::Connect(network, address, ToRpcOptions(config), &rpc);
  if (!s.ok()) return s;
  out->reset(new LrcClient(std::move(rpc)));
  return Status::Ok();
}

Status LrcClient::MappingOp(uint16_t opcode, const std::string& logical,
                            const std::string& target) {
  MappingRequest req;
  req.mappings.push_back(Mapping{logical, target});
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(opcode, payload, &response);
}

Status LrcClient::Create(const std::string& logical, const std::string& target) {
  return MappingOp(kLrcCreate, logical, target);
}

Status LrcClient::Add(const std::string& logical, const std::string& target) {
  return MappingOp(kLrcAdd, logical, target);
}

Status LrcClient::Delete(const std::string& logical, const std::string& target) {
  return MappingOp(kLrcDelete, logical, target);
}

Status LrcClient::BulkMappingOp(uint16_t opcode, const std::vector<Mapping>& mappings,
                                BulkStatusResponse* result) {
  MappingRequest req;
  req.mappings = mappings;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(opcode, payload, &response);
  if (!s.ok()) return s;
  return BulkStatusResponse::Decode(response, result);
}

Status LrcClient::BulkCreate(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return BulkMappingOp(kLrcBulkCreate, mappings, result);
}

Status LrcClient::BulkAdd(const std::vector<Mapping>& mappings,
                          BulkStatusResponse* result) {
  return BulkMappingOp(kLrcBulkAdd, mappings, result);
}

Status LrcClient::BulkDelete(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return BulkMappingOp(kLrcBulkDelete, mappings, result);
}

Status LrcClient::Query(const std::string& logical, std::vector<std::string>* targets,
                        uint32_t offset, uint32_t limit) {
  NameQueryRequest req;
  req.name = logical;
  req.offset = offset;
  req.limit = limit;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcQueryLfn, payload, &response);
  if (!s.ok()) return s;
  StringListResponse result;
  s = StringListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *targets = std::move(result.values);
  return Status::Ok();
}

Status LrcClient::QueryTarget(const std::string& target,
                              std::vector<std::string>* logicals, uint32_t offset,
                              uint32_t limit) {
  NameQueryRequest req;
  req.name = target;
  req.offset = offset;
  req.limit = limit;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcQueryPfn, payload, &response);
  if (!s.ok()) return s;
  StringListResponse result;
  s = StringListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *logicals = std::move(result.values);
  return Status::Ok();
}

Status LrcClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* mappings) {
  BulkQueryRequest req;
  req.names = logicals;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcBulkQueryLfn, payload, &response);
  if (!s.ok()) return s;
  MappingListResponse result;
  s = MappingListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *mappings = std::move(result.mappings);
  return Status::Ok();
}

Status LrcClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* mappings, uint32_t offset) {
  NameQueryRequest req;
  req.name = pattern;
  req.offset = offset;
  req.limit = limit;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcWildcardQueryLfn, payload, &response);
  if (!s.ok()) return s;
  MappingListResponse result;
  s = MappingListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *mappings = std::move(result.mappings);
  return Status::Ok();
}

Status LrcClient::Exists(const std::string& logical) {
  NameQueryRequest req;
  req.name = logical;
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(kLrcExists, payload, &response);
}

Status LrcClient::AttributeDefine(const std::string& name, AttrObject object,
                                  AttrType type) {
  AttrDefineRequest req{name, object, type};
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(kLrcAttrDefine, payload, &response);
}

Status LrcClient::AttributeUndefine(const std::string& name, AttrObject object) {
  AttrDefineRequest req{name, object, AttrType::kString};
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(kLrcAttrUndefine, payload, &response);
}

Status LrcClient::AttrValueOp(uint16_t opcode, const std::string& object_name,
                              const std::string& attr_name, AttrObject object,
                              const AttrValue& value) {
  AttrValueRequest req;
  req.object_name = object_name;
  req.attr_name = attr_name;
  req.object = object;
  req.value = value;
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(opcode, payload, &response);
}

Status LrcClient::AttributeAdd(const std::string& object_name,
                               const std::string& attr_name, AttrObject object,
                               const AttrValue& value) {
  return AttrValueOp(kLrcAttrAdd, object_name, attr_name, object, value);
}

Status LrcClient::AttributeModify(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object,
                                  const AttrValue& value) {
  return AttrValueOp(kLrcAttrModify, object_name, attr_name, object, value);
}

Status LrcClient::AttributeDelete(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object) {
  return AttrValueOp(kLrcAttrDelete, object_name, attr_name, object, AttrValue());
}

Status LrcClient::AttributeQuery(const std::string& object_name, AttrObject object,
                                 std::vector<Attribute>* attributes) {
  AttrValueRequest req;
  req.object_name = object_name;
  req.object = object;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcAttrQueryObj, payload, &response);
  if (!s.ok()) return s;
  AttrListResponse result;
  s = AttrListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *attributes = std::move(result.attributes);
  return Status::Ok();
}

Status LrcClient::AttributeSearch(const std::string& attr_name, AttrObject object,
                                  AttrCmp cmp, const AttrValue& value,
                                  std::vector<Attribute>* results) {
  AttrSearchRequest req;
  req.attr_name = attr_name;
  req.object = object;
  req.cmp = cmp;
  req.value = value;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kLrcAttrSearch, payload, &response);
  if (!s.ok()) return s;
  AttrListResponse result;
  s = AttrListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *results = std::move(result.attributes);
  return Status::Ok();
}

Status LrcClient::BulkAttrOp(uint16_t opcode, const std::vector<AttrValueRequest>& items,
                             BulkStatusResponse* result) {
  BulkAttrRequest req;
  req.items = items;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(opcode, payload, &response);
  if (!s.ok()) return s;
  return BulkStatusResponse::Decode(response, result);
}

Status LrcClient::BulkAttributeAdd(const std::vector<AttrValueRequest>& items,
                                   BulkStatusResponse* result) {
  return BulkAttrOp(kLrcBulkAttrAdd, items, result);
}

Status LrcClient::BulkAttributeDelete(const std::vector<AttrValueRequest>& items,
                                      BulkStatusResponse* result) {
  return BulkAttrOp(kLrcBulkAttrDelete, items, result);
}

Status LrcClient::RliList(std::vector<std::string>* rlis) {
  std::string response;
  Status s = rpc_->Call(kLrcRliList, "", &response);
  if (!s.ok()) return s;
  StringListResponse result;
  s = StringListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *rlis = std::move(result.values);
  return Status::Ok();
}

Status LrcClient::RliAdd(const std::string& rli_address) {
  NameQueryRequest req;
  req.name = rli_address;
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(kLrcRliAdd, payload, &response);
}

Status LrcClient::RliRemove(const std::string& rli_address) {
  NameQueryRequest req;
  req.name = rli_address;
  std::string payload, response;
  req.Encode(&payload);
  return rpc_->Call(kLrcRliRemove, payload, &response);
}

Status LrcClient::ForceUpdate() {
  std::string response;
  return rpc_->Call(kLrcForceUpdate, "", &response);
}

Status LrcClient::Ping() {
  std::string response;
  return rpc_->Call(kPing, "", &response);
}

Status LrcClient::GetStats(GetStatsResponse* stats) {
  std::string response;
  Status s = rpc_->Call(kServerGetStats, "", &response);
  if (!s.ok()) return s;
  return GetStatsResponse::Decode(response, stats);
}

Status LrcClient::GetTraces(const GetTracesRequest& filter,
                            GetTracesResponse* traces) {
  std::string request, response;
  filter.Encode(&request);
  Status s = rpc_->Call(kServerGetTraces, request, &response);
  if (!s.ok()) return s;
  return GetTracesResponse::Decode(response, traces);
}

Status RliClient::Connect(net::Transport* network, const std::string& address,
                          const ClientConfig& config, std::unique_ptr<RliClient>* out) {
  std::unique_ptr<net::RpcClient> rpc;
  Status s = net::RpcClient::Connect(network, address, ToRpcOptions(config), &rpc);
  if (!s.ok()) return s;
  out->reset(new RliClient(std::move(rpc)));
  return Status::Ok();
}

Status RliClient::Query(const std::string& logical, std::vector<std::string>* lrcs) {
  NameQueryRequest req;
  req.name = logical;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kRliQueryLfn, payload, &response);
  if (!s.ok()) return s;
  StringListResponse result;
  s = StringListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *lrcs = std::move(result.values);
  return Status::Ok();
}

Status RliClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* results) {
  BulkQueryRequest req;
  req.names = logicals;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kRliBulkQuery, payload, &response);
  if (!s.ok()) return s;
  MappingListResponse result;
  s = MappingListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *results = std::move(result.mappings);
  return Status::Ok();
}

Status RliClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* results) {
  NameQueryRequest req;
  req.name = pattern;
  req.limit = limit;
  std::string payload, response;
  req.Encode(&payload);
  Status s = rpc_->Call(kRliWildcardQuery, payload, &response);
  if (!s.ok()) return s;
  MappingListResponse result;
  s = MappingListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *results = std::move(result.mappings);
  return Status::Ok();
}

Status RliClient::LrcList(std::vector<std::string>* lrcs) {
  std::string response;
  Status s = rpc_->Call(kRliLrcList, "", &response);
  if (!s.ok()) return s;
  StringListResponse result;
  s = StringListResponse::Decode(response, &result);
  if (!s.ok()) return s;
  *lrcs = std::move(result.values);
  return Status::Ok();
}

Status RliClient::Ping() {
  std::string response;
  return rpc_->Call(kPing, "", &response);
}

Status RliClient::GetStats(GetStatsResponse* stats) {
  std::string response;
  Status s = rpc_->Call(kServerGetStats, "", &response);
  if (!s.ok()) return s;
  return GetStatsResponse::Decode(response, stats);
}

Status RliClient::GetTraces(const GetTracesRequest& filter,
                            GetTracesResponse* traces) {
  std::string request, response;
  filter.Encode(&request);
  Status s = rpc_->Call(kServerGetTraces, request, &response);
  if (!s.ok()) return s;
  return GetTracesResponse::Decode(response, traces);
}

}  // namespace rls
