#include "baseline/mip.h"

namespace rdp::baseline {

// ---------------------------------------------------------------------------
// MipMss
// ---------------------------------------------------------------------------

MipMss::MipMss(core::Runtime& runtime, const BaselineConfig& config, MssId id,
               common::CellId cell, NodeAddress address)
    : runtime_(runtime),
      config_(config),
      id_(id),
      cell_(cell),
      address_(address) {}

std::size_t MipMss::stored_results() const {
  std::size_t total = 0;
  for (const auto& [mh, results] : stored_) total += results.size();
  return total;
}

void MipMss::on_uplink(MhId from, const net::PayloadPtr& payload) {
  if (const auto* greet = net::message_cast<MsgMipGreet>(payload)) {
    if (config_.mode == BaselineMode::kDirect || !greet->home.valid() ||
        greet->home == address_) {
      // We are (or become) this Mh's home agent; register locally.
      care_of_[from] = address_;
      ++registrations_;
      runtime_.wireless.downlink(cell_, from,
                                 net::make_message<core::MsgRegistrationAck>(id_));
      if (config_.mode == BaselineMode::kReliableMobileIp) {
        handle_registration(MsgMipRegistration(from, address_));
      }
      return;
    }
    runtime_.wired.send(address_, greet->home,
                        net::make_message<MsgMipRegistration>(from, address_));
    return;
  }
  if (const auto* req = net::message_cast<MsgMipRequest>(payload)) {
    // The server sees a normal request; the reply path depends on the mode.
    const NodeAddress reply_to =
        config_.mode == BaselineMode::kDirect ? address_ : req->home;
    count("mip.requests_relayed");
    runtime_.wired.send(
        address_, req->server,
        net::make_message<core::MsgServerRequest>(
            reply_to, common::ProxyId(from.value()), req->request, req->body,
            /*stream=*/false));
    return;
  }
  if (const auto* ack = net::message_cast<MsgMipUplinkAck>(payload)) {
    runtime_.wired.send(address_, ack->home,
                        net::make_message<MsgMipAckForward>(from, ack->request),
                        runtime_.ack_priority());
    return;
  }
  count("mip.unknown_uplink");
}

void MipMss::tunnel_to(NodeAddress care_of, MhId mh, RequestId request,
                       const std::string& body, std::uint32_t attempt) {
  ++tunnels_;
  // Home and care-of coincide: deliver over our own cell.
  const bool local = care_of == address_;
  net::PayloadPtr message =
      local ? net::make_message<core::MsgDownlinkResult>(
                  request, /*seq=*/1, /*final=*/true, body, attempt)
            : net::make_message<MsgMipTunnel>(mh, request, body, attempt);
  if (attempt > 1) {
    count("mip.retunnels");
    resend_bytes_ += message->wire_size();
  }
  if (local) {
    runtime_.wireless.downlink(cell_, mh, std::move(message));
  } else {
    runtime_.wired.send(address_, care_of, std::move(message));
  }
}

void MipMss::handle_registration(const MsgMipRegistration& msg) {
  care_of_[msg.mh] = msg.care_of;
  ++registrations_;
  if (msg.care_of != address_) {
    runtime_.wired.send(address_, msg.care_of,
                        net::make_message<MsgMipRegReply>(msg.mh));
  }
  if (config_.mode == BaselineMode::kReliableMobileIp) {
    // Re-tunnel everything unacknowledged to the new care-of address.
    auto it = stored_.find(msg.mh);
    if (it != stored_.end()) {
      for (auto& [request, result] : it->second) {
        tunnel_to(msg.care_of, msg.mh, request, result.body,
                  ++result.attempts);
      }
    }
  }
}

void MipMss::handle_server_result(const core::MsgServerResult& msg) {
  const MhId mh = msg.request.mh();
  if (config_.mode == BaselineMode::kDirect) {
    // We are the Mss the request entered through: one downlink attempt.
    count("mip.direct_downlinks");
    runtime_.wireless.downlink(
        cell_, mh,
        net::make_message<core::MsgDownlinkResult>(msg.request, 1, true,
                                                   msg.body, 1));
    return;
  }
  // Home-agent path.
  auto care_it = care_of_.find(mh);
  if (config_.mode == BaselineMode::kReliableMobileIp) {
    auto& stored = stored_[mh][msg.request];
    stored.body = msg.body;
    if (care_it != care_of_.end()) {
      tunnel_to(care_it->second, mh, msg.request, stored.body,
                ++stored.attempts);
    }
    return;
  }
  if (care_it == care_of_.end()) {
    count("mip.result_without_careof");
    return;  // plain Mobile IP: dropped
  }
  tunnel_to(care_it->second, mh, msg.request, msg.body, 1);
}

void MipMss::on_message(const net::Envelope& envelope) {
  const net::PayloadPtr& payload = envelope.payload;
  if (const auto* reg = net::message_cast<MsgMipRegistration>(payload)) {
    handle_registration(*reg);
    return;
  }
  if (const auto* reply = net::message_cast<MsgMipRegReply>(payload)) {
    runtime_.wireless.downlink(
        cell_, reply->mh, net::make_message<core::MsgRegistrationAck>(id_));
    return;
  }
  if (const auto* result = net::message_cast<core::MsgServerResult>(payload)) {
    handle_server_result(*result);
    return;
  }
  if (const auto* tunnel = net::message_cast<MsgMipTunnel>(payload)) {
    runtime_.wireless.downlink(
        cell_, tunnel->mh,
        net::make_message<core::MsgDownlinkResult>(tunnel->request, 1, true,
                                                   tunnel->body,
                                                   tunnel->attempt));
    return;
  }
  if (const auto* ack = net::message_cast<MsgMipAckForward>(payload)) {
    auto it = stored_.find(ack->mh);
    if (it != stored_.end()) {
      it->second.erase(ack->request);
      if (it->second.empty()) stored_.erase(it);
    }
    return;
  }
  count("mip.unknown_wired");
}

// ---------------------------------------------------------------------------
// MipHostAgent
// ---------------------------------------------------------------------------

MipHostAgent::MipHostAgent(core::Runtime& runtime, const BaselineConfig& config,
                           MhId id)
    : runtime_(runtime), config_(config), id_(id) {
  runtime_.wireless.register_mh(id_, this);
}

void MipHostAgent::power_on(common::CellId cell) {
  RDP_CHECK(!active_, id_.str() + " powered on twice");
  runtime_.wireless.place_mh(id_, cell);
  runtime_.wireless.set_mh_active(id_, true);
  active_ = true;
  send_greet();
}

void MipHostAgent::power_off() {
  RDP_CHECK(active_, id_.str() + " powered off while inactive");
  active_ = false;
  registered_ = false;
  registration_timer_.cancel();
  runtime_.wireless.set_mh_active(id_, false);
}

void MipHostAgent::reactivate() {
  RDP_CHECK(!active_, id_.str() + " reactivated while active");
  runtime_.wireless.set_mh_active(id_, true);
  active_ = true;
  if (runtime_.wireless.mh_cell(id_).has_value()) send_greet();
}

void MipHostAgent::move_while_inactive(common::CellId target) {
  RDP_CHECK(!active_, "use migrate() while active");
  runtime_.wireless.place_mh(id_, target);
}

void MipHostAgent::migrate(common::CellId target,
                           common::Duration travel_time) {
  RDP_CHECK(active_, id_.str() + " migrated while inactive");
  registered_ = false;
  registration_timer_.cancel();
  runtime_.wireless.detach_mh(id_);
  runtime_.simulator.schedule(travel_time, [this, target] {
    runtime_.wireless.place_mh(id_, target);
    if (active_) send_greet();
  });
}

void MipHostAgent::send_greet() {
  greet_sent_ = runtime_.simulator.now();
  registration_attempts_ = 0;
  runtime_.wireless.uplink(id_, net::make_message<MsgMipGreet>(home_));
  arm_registration_timer();
}

void MipHostAgent::arm_registration_timer() {
  registration_timer_.cancel();
  registration_timer_ = runtime_.simulator.schedule(
      runtime_.config.registration_retry, [this] {
        if (registered_ || !active_) return;
        if (!runtime_.wireless.mh_cell(id_).has_value()) return;
        if (++registration_attempts_ >
            runtime_.config.max_registration_retries) {
          runtime_.counters.increment("mip.registration_gave_up");
          return;
        }
        runtime_.counters.increment("mip.registration_retries");
        runtime_.wireless.uplink(id_, net::make_message<MsgMipGreet>(home_));
        arm_registration_timer();
      });
}

RequestId MipHostAgent::issue_request(NodeAddress server, std::string body,
                                      bool stream) {
  RDP_CHECK(!stream, "baseline protocols do not support stream requests");
  const RequestId request{id_, ++next_request_seq_};
  pending_requests_.insert(request);
  runtime_.observer.on_event({.kind = core::Hook::kRequestIssued,
                              .at = runtime_.simulator.now(),
                              .mh = id_,
                              .request = request,
                              .id_a = server.value()});
  auto payload =
      net::make_message<MsgMipRequest>(request, server, home_, std::move(body));
  if (registered_ && active_) {
    runtime_.wireless.uplink(id_, std::move(payload));
  } else {
    outbox_.push_back(std::move(payload));
  }
  return request;
}

void MipHostAgent::flush_outbox() {
  while (!outbox_.empty() && registered_ && active_) {
    // Requests queued before the home was known carry an invalid home;
    // rebuild them now that it is assigned.
    const auto* req = net::message_cast<MsgMipRequest>(outbox_.front());
    if (req != nullptr && req->home != home_) {
      runtime_.wireless.uplink(id_, net::make_message<MsgMipRequest>(
                                        req->request, req->server, home_,
                                        req->body));
    } else {
      runtime_.wireless.uplink(id_, outbox_.front());
    }
    outbox_.pop_front();
  }
}

void MipHostAgent::on_downlink(common::CellId /*cell*/,
                               const net::PayloadPtr& payload) {
  if (const auto* ack = net::message_cast<core::MsgRegistrationAck>(payload)) {
    if (!registered_) {
      registered_ = true;
      if (!home_.valid()) {
        home_ = runtime_.directory.mss_address(ack->mss);
      }
      registration_timer_.cancel();
      runtime_.observer.on_event(
          {.kind = core::Hook::kMhRegistered,
           .at = runtime_.simulator.now(),
           .mh = id_,
           .id_a = ack->mss.value(),
           .duration = runtime_.simulator.now() - greet_sent_});
      flush_outbox();
    }
    return;
  }
  if (const auto* result = net::message_cast<core::MsgDownlinkResult>(payload)) {
    const bool duplicate = !delivered_.insert(result->request).second;
    runtime_.observer.on_event({.kind = core::Hook::kResultDelivered,
                                .at = runtime_.simulator.now(),
                                .mh = id_,
                                .request = result->request,
                                .seq = result->result_seq,
                                .attempt = result->attempt,
                                .flag_a = result->final,
                                .flag_b = duplicate});
    if (!duplicate) {
      ++deliveries_;
      pending_requests_.erase(result->request);
      if (delivery_callback_) {
        delivery_callback_(Delivery{result->request, result->result_seq,
                                    result->body, result->final});
      }
    } else {
      ++duplicates_;
      runtime_.counters.increment("mip.duplicate_results");
    }
    if (config_.mode == BaselineMode::kReliableMobileIp) {
      runtime_.wireless.uplink(
          id_, net::make_message<MsgMipUplinkAck>(result->request, home_),
          runtime_.ack_priority());
    }
    return;
  }
  runtime_.counters.increment("mip.unknown_downlink");
}

}  // namespace rdp::baseline
