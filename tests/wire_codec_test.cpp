// Pins the RLS wire format. Every request/response message has one
// sample with every field non-default and every vector non-empty, plus
// the exact bytes it encodes to. A change to a field list, a type rule
// or a message's field order shows up here as a hex mismatch, so two
// builds that pass this suite speak the same protocol. The message types
// are the ones the operation table's rows (kOpRows) name, so a row with a
// new type and no Golden<T> below fails the build.
//
// For each message type:
//   (a) Encode(sample) equals the golden bytes;
//   (b) decoding the golden bytes and re-encoding reproduces them;
//   (c) every strict prefix of the golden bytes decodes to PROTOCOL;
//   (d) random bytes never crash the decoder (run under sanitizers).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "common/rng.h"
#include "rls/protocol.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

/// One sample per message type and the hex of its encoding.
template <typename T>
struct Golden;

template <>
struct Golden<NoBody> {
  static NoBody Sample() { return {}; }
  static constexpr const char* kHex = "";
};

template <>
struct Golden<MappingRequest> {
  static MappingRequest Sample() {
    MappingRequest m;
    m.mappings = {{"lfn1", "pfn1"}, {"l2", "gsiftp://h/p2"}};
    return m;
  }
  static constexpr const char* kHex =
      "02000000040000006c666e310400000070666e31020000006c320d000000677369667470"
      "3a2f2f682f7032";
};

template <>
struct Golden<NameQueryRequest> {
  static NameQueryRequest Sample() {
    NameQueryRequest m;
    m.name = "lfn*";
    m.offset = 7;
    m.limit = 0x01020304;
    return m;
  }
  static constexpr const char* kHex = "040000006c666e2a0700000004030201";
};

template <>
struct Golden<BulkQueryRequest> {
  static BulkQueryRequest Sample() {
    BulkQueryRequest m;
    m.names = {"a", "bc", "def"};
    return m;
  }
  static constexpr const char* kHex = "03000000010000006102000000626303000000646566";
};

template <>
struct Golden<StringListResponse> {
  static StringListResponse Sample() {
    StringListResponse m;
    m.values = {"rls://lrc0", "x"};
    return m;
  }
  static constexpr const char* kHex = "020000000a000000726c733a2f2f6c7263300100000078";
};

template <>
struct Golden<MappingListResponse> {
  static MappingListResponse Sample() {
    MappingListResponse m;
    m.mappings = {{"a", "b"}, {"cc", "dd"}};
    return m;
  }
  static constexpr const char* kHex =
      "0200000001000000610100000062020000006363020000006464";
};

template <>
struct Golden<BulkStatusResponse> {
  static BulkStatusResponse Sample() {
    BulkStatusResponse m;
    m.failures = {{3, ErrorCode::kAlreadyExists}, {9, ErrorCode::kDataLoss}};
    m.succeeded = 40;
    return m;
  }
  static constexpr const char* kHex = "28000000020000000300000002090000000c";
};

template <>
struct Golden<AttrDefineRequest> {
  static AttrDefineRequest Sample() {
    AttrDefineRequest m;
    m.name = "size";
    m.object = AttrObject::kTarget;
    m.type = AttrType::kDate;
    return m;
  }
  static constexpr const char* kHex = "0400000073697a650103";
};

template <>
struct Golden<AttrValueRequest> {
  static AttrValueRequest Sample() {
    AttrValueRequest m;
    m.object_name = "pfn1";
    m.attr_name = "size";
    m.object = AttrObject::kTarget;
    m.value = AttrValue::Float(2.5);
    return m;
  }
  static constexpr const char* kHex =
      "0400000070666e310400000073697a6501020000000000000440";
};

template <>
struct Golden<BulkAttrRequest> {
  static BulkAttrRequest Sample() {
    BulkAttrRequest m;
    m.items.resize(3);
    m.items[0] = {"o1", "a1", AttrObject::kTarget, AttrValue::Str("v")};
    m.items[1] = {"o2", "a2", AttrObject::kLogical, AttrValue::Int(-2)};
    m.items[2] = {"o3", "a3", AttrObject::kTarget, AttrValue::Date(1000)};
    return m;
  }
  static constexpr const char* kHex =
      "03000000020000006f3102000000613101000100000076020000006f3202000000613200"
      "01feffffffffffffff020000006f330200000061330103e803000000000000";
};

template <>
struct Golden<AttrSearchRequest> {
  static AttrSearchRequest Sample() {
    AttrSearchRequest m;
    m.attr_name = "size";
    m.object = AttrObject::kTarget;
    m.cmp = AttrCmp::kGe;
    m.value = AttrValue::Int(4096);
    return m;
  }
  static constexpr const char* kHex = "0400000073697a650105010010000000000000";
};

template <>
struct Golden<AttrListResponse> {
  static AttrListResponse Sample() {
    AttrListResponse m;
    m.attributes = {{"n1", AttrObject::kTarget, AttrValue::Str("s")},
                    {"n2", AttrObject::kLogical, AttrValue::Float(-1.0)}};
    return m;
  }
  static constexpr const char* kHex =
      "02000000020000006e3101000100000073020000006e320002000000000000f0bf";
};

template <>
struct Golden<FullUpdateBegin> {
  static FullUpdateBegin Sample() {
    FullUpdateBegin m;
    m.lrc_url = "rls://lrc";
    m.update_id = 5;
    m.total_names = 1000000;
    m.sent_micros = -3;
    return m;
  }
  static constexpr const char* kHex =
      "09000000726c733a2f2f6c7263050000000000000040420f0000000000fdffffffffffff"
      "ff";
};

template <>
struct Golden<FullUpdateChunk> {
  static FullUpdateChunk Sample() {
    FullUpdateChunk m;
    m.lrc_url = "rls://lrc";
    m.update_id = 6;
    m.names = {"n1", "n2"};
    return m;
  }
  static constexpr const char* kHex =
      "09000000726c733a2f2f6c7263060000000000000002000000020000006e31020000006e"
      "32";
};

template <>
struct Golden<FullUpdateEnd> {
  static FullUpdateEnd Sample() {
    FullUpdateEnd m;
    m.lrc_url = "rls://lrc";
    m.update_id = 7;
    return m;
  }
  static constexpr const char* kHex = "09000000726c733a2f2f6c72630700000000000000";
};

template <>
struct Golden<IncrementalUpdate> {
  static IncrementalUpdate Sample() {
    IncrementalUpdate m;
    m.lrc_url = "rls://lrc";
    m.added = {"a1", "a2"};
    m.removed = {"r1"};
    m.sent_micros = 123456789;
    return m;
  }
  static constexpr const char* kHex =
      "09000000726c733a2f2f6c72630200000002000000613102000000613201000000020000"
      "00723115cd5b0700000000";
};

template <>
struct Golden<BloomUpdate> {
  static BloomUpdate Sample() {
    BloomUpdate m;
    m.lrc_url = "rls://lrc";
    m.filter_bytes = std::string("BLM1\x00\xff", 6);
    m.sent_micros = 42;
    return m;
  }
  static constexpr const char* kHex =
      "09000000726c733a2f2f6c726306000000424c4d3100ff2a00000000000000";
};

template <>
struct Golden<GetStatsResponse> {
  static GetStatsResponse Sample() {
    GetStatsResponse m;
    m.role = "lrc+rli";
    m.build_flags = "debug";
    m.last_update_trace_id = 8;
    TargetStatus target;
    target.address = "rli";
    target.updates_sent = 22;
    target.seconds_since_last = 0.25;
    target.healthy = false;
    target.consecutive_failures = 23;
    target.full_resends = 24;
    m.targets = {target};
    MetricSample metric;
    metric.name = "m";
    metric.labels = "l=\"v\"";
    metric.kind = 2;
    metric.value = 3.0;
    metric.mean_us = 4.0;
    metric.p50_us = 26;
    metric.p95_us = 27;
    metric.p99_us = 28;
    metric.p999_us = 29;
    metric.max_us = 30;
    metric.exemplar_us = 31;
    metric.exemplar_trace = 32;
    m.metrics = {metric};
    return m;
  }
  static constexpr const char* kHex =
      "070000006c72632b726c6905000000646562756708000000000000000100000003000000"
      "726c691600000000000000000000000000d03f0017000000180000000000000001000000"
      "010000006d050000006c3d22762202000000000000084000000000000010401a00000000"
      "0000001b000000000000001c000000000000001d000000000000001e000000000000001f"
      "000000000000002000000000000000";
};

template <>
struct Golden<GetTracesRequest> {
  static GetTracesRequest Sample() {
    GetTracesRequest m;
    m.trace_id = 0x1122334455667788;
    m.method = "lrc_add";
    m.component = "rpc";
    m.min_duration_us = 100;
    m.limit = 5;
    m.source = TraceSource::kSlowLog;
    return m;
  }
  static constexpr const char* kHex =
      "8877665544332211070000006c72635f6164640300000072706364000000000000000500"
      "000001";
};

template <>
struct Golden<GetTracesResponse> {
  static GetTracesResponse Sample() {
    GetTracesResponse m;
    m.depth = 1;
    m.dropped = 2;
    m.capacity = 3;
    TraceSpan span;
    span.component = "rpc";
    span.name = "lrc_add";
    span.trace_id = 4;
    span.span_id = 5;
    span.tid = 6;
    span.start_us = -7;
    span.duration_us = 8;
    span.hops = {{"recv", 0}, {"reply", 9}};
    m.spans = {span};
    return m;
  }
  static constexpr const char* kHex =
      "010000000000000002000000000000000300000000000000010000000300000072706307"
      "0000006c72635f6164640400000000000000050000000000000006000000f9ffffffffff"
      "ffff08000000000000000200000004000000726563760000000000000000050000007265"
      "706c790900000000000000";
};

/// A list of distinct types; Add<T> appends T unless it is present.
template <typename... Ts>
struct TypeSet {
  template <typename T>
  using Add = std::conditional_t<(std::is_same_v<T, Ts> || ...), TypeSet,
                                 TypeSet<Ts..., T>>;
  using Testing = ::testing::Types<Ts...>;
};

template <typename Set, typename Rows>
struct AddRows;
template <typename Set>
struct AddRows<Set, std::tuple<>> {
  using type = Set;
};
template <typename Set, typename Row, typename... Rows>
struct AddRows<Set, std::tuple<Row, Rows...>> {
  using type = typename AddRows<typename Set::template Add<typename Row::Request>::
                                    template Add<typename Row::Reply>,
                                std::tuple<Rows...>>::type;
};

/// Every request and reply type of the kOpTable rows, each once.
using WireMessages =
    AddRows<TypeSet<>, std::remove_const_t<decltype(kOpRows)>>::type::Testing;

template <typename T>
class WireCodecTest : public ::testing::Test {};

TYPED_TEST_SUITE(WireCodecTest, WireMessages);

TYPED_TEST(WireCodecTest, EncodesToGoldenBytes) {
  std::string bytes;
  Golden<TypeParam>::Sample().Encode(&bytes);
  EXPECT_EQ(Hex(bytes), Golden<TypeParam>::kHex);
}

TYPED_TEST(WireCodecTest, GoldenBytesRoundTrip) {
  const std::string golden = Unhex(Golden<TypeParam>::kHex);
  ASSERT_EQ(Hex(golden), Golden<TypeParam>::kHex);  // well-formed hex
  TypeParam decoded;
  ASSERT_TRUE(TypeParam::Decode(golden, &decoded).ok());
  std::string reencoded;
  decoded.Encode(&reencoded);
  EXPECT_EQ(Hex(reencoded), Golden<TypeParam>::kHex);
}

TYPED_TEST(WireCodecTest, EveryStrictPrefixIsProtocol) {
  const std::string golden = Unhex(Golden<TypeParam>::kHex);
  ASSERT_EQ(Hex(golden), Golden<TypeParam>::kHex);  // well-formed hex
  for (std::size_t len = 0; len < golden.size(); ++len) {
    TypeParam decoded;
    EXPECT_EQ(TypeParam::Decode(std::string_view(golden).substr(0, len), &decoded)
                  .code(),
              ErrorCode::kProtocol)
        << "prefix of " << len << " of " << golden.size() << " bytes";
  }
}

TYPED_TEST(WireCodecTest, RandomBytesNeverCrashDecoder) {
  rlscommon::Xoshiro256 rng(99);
  for (int i = 0; i < 200; ++i) {
    std::string junk;
    const std::size_t len = rng.Below(40);
    for (std::size_t b = 0; b < len; ++b) {
      junk.push_back(static_cast<char>(rng.Below(256)));
    }
    TypeParam decoded;
    (void)TypeParam::Decode(junk, &decoded);  // any status; no crash, no UB
  }
}

}  // namespace
}  // namespace rls
