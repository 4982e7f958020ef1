// Robustness: hostile/malformed wire payloads must produce PROTOCOL
// errors, never crashes or hangs; requests before AUTH are rejected;
// unknown opcodes are rejected; error frames must carry a real error
// code. Per-message decoder coverage (truncation, garbage, round trip)
// lives in wire_codec_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "net/rpc.h"
#include "net/serialize.h"
#include "rls/client.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    const int id = counter.fetch_add(1);
    RlsServerConfig config;
    config.address = "rls:rob" + std::to_string(id);
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://rob_lrc" + std::to_string(id);
    config.rli.enabled = true;
    config.rli.dsn = "mysql://rob_rli" + std::to_string(id);
    ASSERT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    ASSERT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    address_ = config.address;
    server_ = std::make_unique<RlsServer>(&network_, config, &env_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(net::RpcClient::Connect(&network_, address_, {}, &rpc_).ok());
  }

  net::InProcTransport network_;
  dbapi::Environment env_;
  std::string address_;
  std::unique_ptr<RlsServer> server_;
  std::unique_ptr<net::RpcClient> rpc_;
};

TEST_F(RobustnessTest, TruncatedPayloadsRejectedOnEveryOpcode) {
  // The rows that take no request body.
  std::set<uint16_t> bodyless;
  auto note = [&bodyless](const auto& row) {
    using Row = std::remove_cvref_t<decltype(row)>;
    if (std::is_same_v<typename Row::Request, NoBody>) bodyless.insert(Row::kOpcode);
  };
  std::apply([&note](const auto&... row) { (note(row), ...); }, kOpRows);
  ASSERT_TRUE(bodyless.count(kPing));
  for (const OpSpec& op : kOpTable) {
    if (bodyless.count(op.opcode)) continue;
    std::string response;
    // Empty payload where a body is required.
    auto s = rpc_->Call(op.opcode, "", &response);
    EXPECT_FALSE(s.ok()) << op.name << " accepted empty payload";
    // One stray byte.
    s = rpc_->Call(op.opcode, "\x01", &response);
    EXPECT_FALSE(s.ok()) << op.name << " accepted 1-byte payload";
  }
  // The connection survives all of it.
  EXPECT_TRUE(rpc_->Call(kPing, "", nullptr).ok());
}

TEST_F(RobustnessTest, RandomBytesNeverCrashTheServer) {
  rlscommon::Xoshiro256 rng(1234);
  for (int round = 0; round < 500; ++round) {
    const uint16_t opcode = static_cast<uint16_t>(rng.Below(70));
    std::string payload;
    const std::size_t len = rng.Below(64);
    for (std::size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Below(256)));
    }
    std::string response;
    (void)rpc_->Call(opcode, payload, &response);  // any status; no crash
  }
  EXPECT_TRUE(rpc_->Call(kPing, "", nullptr).ok());
}

TEST_F(RobustnessTest, HostileCountPrefixesRejected) {
  // A MappingRequest claiming 2^31 mappings with a tiny body.
  std::string payload;
  net::Writer w(&payload);
  w.U32(0x7fffffff);
  w.Str("lfn");
  std::string response;
  auto s = rpc_->Call(kLrcBulkCreate, payload, &response);
  EXPECT_EQ(s.code(), ErrorCode::kProtocol);

  // Bloom updates whose well-formed header promises more bits than the
  // body holds, or no bits at all, fail with PROTOCOL, and the RLI goes
  // on answering. 2^64 - 1 bits once wrapped the word count to 0 and was
  // stored; the next query read far past the empty array.
  std::string header;
  bloom::BloomFilter::ForEntries(1000).Serialize(&header);
  header.resize(24);  // magic, num_bits, 3 hashes, insert count; no body
  for (const uint64_t num_bits : {~uint64_t{0}, uint64_t{0}}) {
    BloomUpdate update;
    update.lrc_url = "rls://attacker-" + std::to_string(num_bits);
    update.filter_bytes = header;
    std::memcpy(update.filter_bytes.data() + 4, &num_bits, sizeof(num_bits));
    EXPECT_EQ(Invoke<kSsBloom>(*rpc_, update).code(), ErrorCode::kProtocol) << num_bits;
  }
  NameQueryRequest query;
  query.name = "lfn-held";
  StringListResponse reply;
  EXPECT_EQ(Invoke<kRliQueryLfn>(*rpc_, query, &reply).code(), ErrorCode::kNotFound);

  bloom::BloomFilter honest = bloom::BloomFilter::ForEntries(1000);
  honest.Insert("lfn-held");
  BloomUpdate update;
  update.lrc_url = "rls://honest";
  honest.Serialize(&update.filter_bytes);
  ASSERT_TRUE(Invoke<kSsBloom>(*rpc_, update).ok());
  ASSERT_TRUE(Invoke<kRliQueryLfn>(*rpc_, query, &reply).ok());
  EXPECT_EQ(reply.values, std::vector<std::string>{"rls://honest"});
}

TEST_F(RobustnessTest, RequestsBeforeAuthRejected) {
  // Hand-rolled connection that skips the AUTH handshake.
  net::ConnectionPtr raw;
  ASSERT_TRUE(network_.Connect(address_, net::LinkModel::Loopback(), &raw).ok());
  net::Message msg;
  msg.request_id = 1;
  msg.opcode = kLrcExists;
  NameQueryRequest req;
  req.name = "x";
  req.Encode(&msg.payload);
  ASSERT_TRUE(raw->Send(std::move(msg)).ok());
  net::Message reply;
  ASSERT_TRUE(raw->Recv(&reply).ok());
  ASSERT_TRUE(reply.is_error());
  EXPECT_EQ(net::DecodeError(reply.payload).code(), ErrorCode::kUnauthenticated);
}

TEST_F(RobustnessTest, UnknownOpcodeRejected) {
  std::string response;
  auto s = rpc_->Call(9999, "", &response);
  EXPECT_EQ(s.code(), ErrorCode::kProtocol);
}

TEST_F(RobustnessTest, UnknownOpcodesShareOneMetricSeries) {
  // Opcodes past the last row, on both sides of the RPC server's
  // 256-slot opcode cache.
  std::vector<uint16_t> unknown = {0x7fff, 0xffff};
  for (uint16_t opcode = kSsBloom + 1; opcode < 1000; ++opcode) {
    unknown.push_back(opcode);
  }
  std::string response;
  for (int round = 0; round < 2; ++round) {
    for (uint16_t opcode : unknown) {
      ASSERT_EQ(rpc_->Call(opcode, "", &response).code(), ErrorCode::kProtocol)
          << "opcode " << opcode;
    }
  }
  int per_opcode_series = 0;
  std::map<std::string, int> unknown_series;
  for (const obs::Sample& sample : server_->metrics_registry()->TakeSnapshot().samples) {
    if (sample.labels.find("method=\"op_") != std::string::npos) ++per_opcode_series;
    if (sample.labels.find("method=\"unknown\"") != std::string::npos) {
      ++unknown_series[sample.name];
    }
  }
  EXPECT_EQ(per_opcode_series, 0);
  ASSERT_FALSE(unknown_series.empty());
  for (const auto& [name, series] : unknown_series) {
    EXPECT_EQ(series, 1) << name;
  }
}

TEST_F(RobustnessTest, OversizedNameRejectedCleanly) {
  // The Fig. 3 schema caps names at VARCHAR(250); a 10 KB name must fail
  // with a clean error, not corrupt anything.
  MappingRequest req;
  req.mappings.push_back(Mapping{std::string(10000, 'x'), "target"});
  std::string payload, response;
  req.Encode(&payload);
  auto s = rpc_->Call(kLrcCreate, payload, &response);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(rpc_->Call(kPing, "", nullptr).ok());
  EXPECT_EQ(server_->lrc_store()->LogicalNameCount(), 0u);
}

// A GetTraces source past the slow log is malformed, not the ring buffer.
TEST_F(RobustnessTest, UnknownTraceSourceRejected) {
  std::string payload;
  GetTracesRequest().Encode(&payload);
  payload.back() = 2;  // the source byte, last on the wire
  std::string response;
  EXPECT_EQ(rpc_->Call(kServerGetTraces, payload, &response).code(),
            ErrorCode::kProtocol);
  EXPECT_TRUE(rpc_->Call(kPing, "", nullptr).ok());
}

TEST_F(RobustnessTest, ErrorCodecRoundTrip) {
  std::string payload;
  net::EncodeError(rlscommon::Status::Timeout("deadline"), &payload);
  auto s = net::DecodeError(payload);
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(s.message(), "deadline");
  EXPECT_EQ(net::DecodeError("junk").code(), ErrorCode::kProtocol);
}

// An error frame must carry an error. Code 0 would report success for a
// write no server acknowledged; a code past ErrorCode::kLast has no
// meaning in this build (and would not be retried even if it meant
// UNAVAILABLE).
TEST(ErrorFrameCodeTest, DecodeErrorRejectsOkAndUnknownCodes) {
  for (int code : {0, 200}) {
    std::string payload;
    net::Writer w(&payload);
    w.U8(static_cast<uint8_t>(code));
    w.Str("not an error");
    EXPECT_EQ(net::DecodeError(payload).code(), ErrorCode::kProtocol) << "code " << code;
  }
  std::string last;
  net::EncodeError(rlscommon::Status::DataLoss("disk"), &last);
  EXPECT_EQ(net::DecodeError(last).code(), ErrorCode::kDataLoss);
}

TEST(ErrorFrameCodeTest, ErrorFrameWithCodeZeroFailsTheCall) {
  // A listener that completes the AUTH handshake, then answers every
  // request with an error-flagged frame whose code byte is 0.
  net::InProcTransport network;
  std::vector<std::thread> servers;
  ASSERT_TRUE(network
                  .Listen("zero-code",
                          [&servers](net::ConnectionPtr conn) {
                            servers.emplace_back(
                                [c = std::shared_ptr<net::Connection>(
                                     conn.release())] {
                                  net::Message msg;
                                  while (c->Recv(&msg).ok()) {
                                    net::Message reply;
                                    reply.request_id = msg.request_id;
                                    reply.opcode = msg.opcode;
                                    reply.flags = net::Message::kFlagResponse;
                                    if (msg.opcode != net::kOpcodeAuth) {
                                      reply.flags |= net::Message::kFlagError;
                                      net::Writer w(&reply.payload);
                                      w.U8(0);
                                      w.Str("stored");
                                    }
                                    if (!c->Send(std::move(reply)).ok()) break;
                                  }
                                });
                          })
                  .ok());
  std::unique_ptr<LrcClient> client;
  EXPECT_TRUE(LrcClient::Connect(&network, "zero-code", {}, &client).ok());
  if (client) {
    EXPECT_EQ(client->Create("lfn", "pfn").code(), ErrorCode::kProtocol);
  }
  client.reset();  // closes the connection; the listener thread exits
  for (std::thread& t : servers) t.join();
}

TEST(ErrorFrameCodeTest, BulkStatusRejectsUnknownErrorCode) {
  std::string payload;
  net::Writer w(&payload);
  w.U32(1);    // succeeded
  w.U32(1);    // one failure
  w.U32(0);    // at index 0
  w.U8(250);   // with a code past ErrorCode::kLast
  BulkStatusResponse decoded;
  EXPECT_EQ(BulkStatusResponse::Decode(payload, &decoded).code(),
            ErrorCode::kProtocol);
}

}  // namespace
}  // namespace rls
