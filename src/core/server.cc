#include "core/server.h"

#include "obs/perf_probe.h"

namespace rdp::core {

Server::Server(Runtime& runtime, common::ServerId id, NodeAddress address,
               Config config, common::Rng rng, Handler handler)
    : runtime_(runtime),
      id_(id),
      address_(address),
      config_(config),
      rng_(rng),
      handler_(std::move(handler)) {
  if (!handler_) {
    handler_ = [](const std::string& body) { return "re:" + body; };
  }
}

common::Duration Server::sample_service_time() {
  const auto jitter_us = config_.service_jitter.count_micros();
  return config_.base_service_time +
         (jitter_us > 0 ? common::Duration::micros(rng_.uniform_int(0, jitter_us))
                        : common::Duration::zero());
}

void Server::send_result(NodeAddress reply_to, ProxyId proxy,
                         RequestId request, std::uint32_t seq, bool final,
                         std::string body) {
  runtime_.wired.send(address_, reply_to,
                      net::make_message<MsgServerResult>(
                          proxy, request, seq, final, std::move(body)));
}

void Server::on_message(const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kCore);
  if (const auto* req = net::message_cast<MsgServerRequest>(envelope.payload)) {
    ++served_;
    if (req->stream) {
      process_subscribe(*req);
    } else {
      process_request(*req);
    }
    return;
  }
  if (const auto* unsub =
          net::message_cast<MsgServerUnsubscribe>(envelope.payload)) {
    handle_unsubscribe(*unsub);
    return;
  }
  if (net::message_cast<MsgServerAck>(envelope.payload) != nullptr) {
    ++acks_;
    return;
  }
  runtime_.counters.increment("server.unknown_message");
}

void Server::process_request(const MsgServerRequest& msg) {
  // Copy what the deferred reply needs; the envelope dies with this call.
  const NodeAddress reply_to = msg.reply_to;
  const ProxyId proxy = msg.proxy;
  const RequestId request = msg.request;
  std::string reply = handler_(msg.body);
  runtime_.simulator.schedule(
      sample_service_time(),
      [this, reply_to, proxy, request, reply = std::move(reply)]() mutable {
        send_result(reply_to, proxy, request, /*seq=*/1, /*final=*/true,
                    std::move(reply));
      });
}

void Server::process_subscribe(const MsgServerRequest& msg) {
  Subscription sub{msg.reply_to, msg.proxy, 1};
  const auto [it, inserted] = subscriptions_.emplace(msg.request, sub);
  if (!inserted) return;  // duplicate subscribe
  // Initial snapshot after the usual service time.
  const RequestId request = msg.request;
  std::string snapshot = handler_(msg.body);
  runtime_.simulator.schedule(
      sample_service_time(),
      [this, request, snapshot = std::move(snapshot)]() mutable {
        auto sub_it = subscriptions_.find(request);
        if (sub_it == subscriptions_.end()) return;  // already unsubscribed
        Subscription& s = sub_it->second;
        send_result(s.reply_to, s.proxy, request, s.next_seq++, /*final=*/false,
                    std::move(snapshot));
      });
}

bool Server::notify(RequestId request, const std::string& body) {
  auto it = subscriptions_.find(request);
  if (it == subscriptions_.end()) return false;
  Subscription& s = it->second;
  send_result(s.reply_to, s.proxy, request, s.next_seq++, /*final=*/false,
              body);
  return true;
}

void Server::publish(const std::string& body) {
  for (auto& [request, s] : subscriptions_) {
    send_result(s.reply_to, s.proxy, request, s.next_seq++, /*final=*/false,
                body);
  }
}

void Server::handle_unsubscribe(const MsgServerUnsubscribe& msg) {
  auto it = subscriptions_.find(msg.request);
  if (it == subscriptions_.end()) return;
  Subscription s = it->second;
  subscriptions_.erase(it);
  send_result(s.reply_to, s.proxy, msg.request, s.next_seq, /*final=*/true,
              "unsubscribed");
}

}  // namespace rdp::core
