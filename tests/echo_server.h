// Shared test fixture: an echo RPC server on any transport.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/rpc.h"
#include "obs/metrics.h"

namespace net {

/// Echo RPC server listening on "echo"; opcode 900 sleeps `work` first.
/// Its counts live in `registry`.
struct EchoServer {
  explicit EchoServer(Transport* transport,
                      std::chrono::milliseconds work = std::chrono::milliseconds(0)) {
    ServerOptions options;
    options.metrics = &registry;
    server = std::make_unique<RpcServer>(
        transport, "echo", options,
        [work](const gsi::AuthContext&, uint16_t opcode,
               const std::string& request, std::string* response) {
          if (opcode == 900 && work.count() > 0) std::this_thread::sleep_for(work);
          *response = request;
          return rlscommon::Status::Ok();
        });
    EXPECT_TRUE(server->Start().ok());
  }
  /// Requests the server executed.
  double requests() const {
    return obs::SampleValue(registry.TakeSnapshot().samples, "rpc_requests_total",
                            obs::kAnyLabels);
  }

  obs::Registry registry;  // outlives the server
  std::unique_ptr<RpcServer> server;
};

}  // namespace net
