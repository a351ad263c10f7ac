// Direct unit tests of core::Server: the request/reply path as the server
// sees it (a fixed client — the proxy), service-time modelling,
// subscription registration / notification / unsubscription, and
// application-level completion acks.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/server.h"

namespace rdp::core {
namespace {

using common::Duration;
using common::MhId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;
using common::ServerId;

struct ProxyHostStub final : net::Endpoint {
  std::vector<MsgServerResult> results;
  void on_message(const net::Envelope& envelope) override {
    const auto* msg = net::message_cast<MsgServerResult>(envelope.payload);
    ASSERT_NE(msg, nullptr);
    results.push_back(*msg);
  }
};

class ServerUnitTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kProxyHost = 0;
  static constexpr std::uint32_t kServer = 1;

  ServerUnitTest()
      : wired_(sim_, common::Rng(1), fast_wire()),
        wireless_(sim_, common::Rng(2), net::WirelessConfig{}) {
    wired_.attach(NodeAddress(kProxyHost), &proxy_host_);
    runtime_ = std::make_unique<Runtime>(Runtime{
        sim_, wired_, wireless_, directory_, config_, observer_, counters_});
  }

  static net::WiredConfig fast_wire() {
    net::WiredConfig config;
    config.base_latency = Duration::millis(1);
    config.jitter = Duration::zero();
    return config;
  }

  Server& make_server(Server::Config server_config,
                      Server::Handler handler = {}) {
    server_ = std::make_unique<Server>(*runtime_, ServerId(0),
                                       NodeAddress(kServer), server_config,
                                       common::Rng(3), std::move(handler));
    wired_.attach(NodeAddress(kServer), server_.get());
    return *server_;
  }

  void send_request(RequestId request, std::string body, bool stream) {
    wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
                net::make_message<MsgServerRequest>(NodeAddress(kProxyHost),
                                                    ProxyId(0), request,
                                                    std::move(body), stream));
  }

  static RequestId req(std::uint32_t n) { return RequestId(MhId(1), n); }

  sim::Simulator sim_;
  net::WiredNetwork wired_;
  net::WirelessChannel wireless_;
  Directory directory_;
  RdpConfig config_;
  RdpObserver observer_;
  stats::CounterRegistry counters_;
  std::unique_ptr<Runtime> runtime_;
  ProxyHostStub proxy_host_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerUnitTest, EchoHandlerByDefault) {
  make_server(Server::Config{Duration::millis(50), Duration::zero()});
  send_request(req(1), "ping", false);
  sim_.run();
  ASSERT_EQ(proxy_host_.results.size(), 1u);
  EXPECT_EQ(proxy_host_.results[0].body, "re:ping");
  EXPECT_TRUE(proxy_host_.results[0].final);
  EXPECT_EQ(proxy_host_.results[0].result_seq, 1u);
}

TEST_F(ServerUnitTest, CustomHandler) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()},
              [](const std::string& body) { return body + body; });
  send_request(req(1), "ab", false);
  sim_.run();
  ASSERT_EQ(proxy_host_.results.size(), 1u);
  EXPECT_EQ(proxy_host_.results[0].body, "abab");
}

TEST_F(ServerUnitTest, ServiceTimeDelaysTheReply) {
  make_server(Server::Config{Duration::millis(500), Duration::zero()});
  send_request(req(1), "q", false);
  sim_.run();
  // request wire 1ms + service 500ms + reply wire 1ms.
  EXPECT_EQ(sim_.now().count_micros(), 502'000);
}

TEST_F(ServerUnitTest, ServiceJitterStaysInBounds) {
  make_server(Server::Config{Duration::millis(100), Duration::millis(200)});
  for (std::uint32_t i = 1; i <= 50; ++i) send_request(req(i), "q", false);
  sim_.run();
  ASSERT_EQ(proxy_host_.results.size(), 50u);
  // All replies within [base, base+jitter] + wire time of the batch send.
  EXPECT_LE(sim_.now().count_micros(), (1 + 100 + 200 + 1) * 1000 + 1000);
  EXPECT_EQ(server_->requests_served(), 50u);
}

TEST_F(ServerUnitTest, SubscriptionLifecycle) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()});
  send_request(req(1), "topic", true);
  sim_.run();
  EXPECT_EQ(server_->active_subscriptions(), 1u);
  ASSERT_EQ(proxy_host_.results.size(), 1u);  // snapshot
  EXPECT_FALSE(proxy_host_.results[0].final);
  EXPECT_EQ(proxy_host_.results[0].body, "re:topic");

  server_->publish("news-1");
  server_->publish("news-2");
  sim_.run();
  ASSERT_EQ(proxy_host_.results.size(), 3u);
  EXPECT_EQ(proxy_host_.results[1].body, "news-1");
  EXPECT_EQ(proxy_host_.results[1].result_seq, 2u);
  EXPECT_EQ(proxy_host_.results[2].result_seq, 3u);

  wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
              net::make_message<MsgServerUnsubscribe>(ProxyId(0), req(1)));
  sim_.run();
  ASSERT_EQ(proxy_host_.results.size(), 4u);
  EXPECT_TRUE(proxy_host_.results[3].final);
  EXPECT_EQ(proxy_host_.results[3].body, "unsubscribed");
  EXPECT_EQ(server_->active_subscriptions(), 0u);
}

TEST_F(ServerUnitTest, DuplicateSubscribeIgnored) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()});
  send_request(req(1), "topic", true);
  send_request(req(1), "topic", true);
  sim_.run();
  EXPECT_EQ(server_->active_subscriptions(), 1u);
  EXPECT_EQ(proxy_host_.results.size(), 1u);  // one snapshot only
}

TEST_F(ServerUnitTest, UnsubscribeUnknownRequestIsSilent) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()});
  wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
              net::make_message<MsgServerUnsubscribe>(ProxyId(0), req(9)));
  sim_.run();
  EXPECT_TRUE(proxy_host_.results.empty());
}

TEST_F(ServerUnitTest, UnsubscribeRacingSnapshotSuppressesIt) {
  make_server(Server::Config{Duration::millis(100), Duration::zero()});
  send_request(req(1), "topic", true);
  // Unsubscribe lands before the snapshot's service time elapses.
  sim_.schedule(Duration::millis(30), [&] {
    wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
                net::make_message<MsgServerUnsubscribe>(ProxyId(0), req(1)));
  });
  sim_.run();
  // Only the final "unsubscribed" arrives; the snapshot was cancelled.
  ASSERT_EQ(proxy_host_.results.size(), 1u);
  EXPECT_TRUE(proxy_host_.results[0].final);
}

TEST_F(ServerUnitTest, CompletionAcksAreCounted) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()});
  wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
              net::make_message<MsgServerAck>(req(1)));
  sim_.run();
  EXPECT_EQ(server_->completion_acks(), 1u);
}

TEST_F(ServerUnitTest, UnknownMessageCounted) {
  make_server(Server::Config{Duration::millis(10), Duration::zero()});
  struct Odd final : net::Message<Odd> {
    auto fields() const { return std::tie(); }
    const char* name() const override { return "odd"; }
  };
  wired_.send(NodeAddress(kProxyHost), NodeAddress(kServer),
              net::make_message<Odd>());
  sim_.run();
  EXPECT_EQ(counters_.get("server.unknown_message"), 1u);
}

}  // namespace
}  // namespace rdp::core
