#include "core/mobile_host.h"

#include <algorithm>

#include "obs/perf_probe.h"

namespace rdp::core {
namespace {

// Application traffic rides the ARQ channel; registration traffic
// (join/greet/leave) has its own retry loop and must work before the
// channel opens, so it goes straight to the radio.
bool rides_arq(const net::MessageBase& message) {
  return dynamic_cast<const MsgUplinkRequest*>(&message) != nullptr ||
         dynamic_cast<const MsgUnsubscribe*>(&message) != nullptr ||
         dynamic_cast<const MsgUplinkAck*>(&message) != nullptr;
}

}  // namespace

MobileHostAgent::MobileHostAgent(Runtime& runtime, MhId id)
    : runtime_(runtime), id_(id) {
  runtime_.wireless.register_mh(id_, this);
  if (runtime_.config.arq.enabled()) {
    arq_ = std::make_unique<arq::ArqSender>(
        runtime_.simulator, runtime_.wireless, runtime_.config.arq,
        runtime_.observer, runtime_.counters, id_);
  }
}

std::optional<common::CellId> MobileHostAgent::cell() const {
  return runtime_.wireless.mh_cell(id_);
}

void MobileHostAgent::uplink(net::PayloadPtr payload,
                             sim::EventPriority priority) {
  if (arq_ != nullptr && rides_arq(*payload)) {
    arq_->enqueue(std::move(payload), priority);
    return;
  }
  runtime_.wireless.uplink(id_, std::move(payload), priority);
}

MobileHostAgent::Pending::iterator MobileHostAgent::find_pending(
    RequestId request) {
  const auto it = std::lower_bound(
      pending_.begin(), pending_.end(), request,
      [](const PendingRequest& entry, RequestId key) {
        return entry.request < key;
      });
  return it != pending_.end() && it->request == request ? it : pending_.end();
}

bool MobileHostAgent::watching() const {
  return std::any_of(pending_.begin(), pending_.end(),
                     [](const PendingRequest& entry) { return entry.watched; });
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

void MobileHostAgent::power_on(common::CellId cell) {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(!active_, id_.str() + " powered on twice");
  runtime_.wireless.place_mh(id_, cell);
  runtime_.wireless.set_mh_active(id_, true);
  active_ = true;
  in_system_ = true;
  registered_ = false;
  send_greet_or_join();
}

void MobileHostAgent::power_off() {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(active_, id_.str() + " powered off while inactive");
  active_ = false;
  registered_ = false;
  registration_timer_.cancel();
  // Don't keep the event queue alive while the Mh sleeps; the watchdog is
  // re-armed on reactivate().
  reissue_timer_.cancel();
  if (arq_ != nullptr) arq_->pause();
  runtime_.wireless.set_mh_active(id_, false);
}

void MobileHostAgent::reactivate() {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(!active_, id_.str() + " reactivated while active");
  RDP_CHECK(in_system_, id_.str() + " reactivated after leaving");
  runtime_.wireless.set_mh_active(id_, true);
  active_ = true;
  if (watching()) arm_reissue_timer();
  // If the Mh powered off mid-transit it has no cell yet; the greet is
  // sent on arrival (see migrate()).
  if (runtime_.wireless.mh_cell(id_).has_value()) send_greet_or_join();
}

void MobileHostAgent::move_while_inactive(common::CellId target) {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(!active_, "use migrate() while active");
  travel_timer_.cancel();  // an in-flight arrival would undo this placement
  runtime_.wireless.place_mh(id_, target);
}

void MobileHostAgent::migrate(common::CellId target,
                              common::Duration travel_time) {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(active_, id_.str() + " migrated while inactive");
  registered_ = false;
  registration_timer_.cancel();
  if (arq_ != nullptr) arq_->pause();
  runtime_.wireless.detach_mh(id_);
  travel_timer_.cancel();  // still in transit: the old destination is moot
  // Mh-side cascades can only ever uplink, so every Mh timer carries the
  // wireless latency as its reaction bound (see sim::Simulator): the
  // sharded kernel may run windows that wide across a fleet of mobile
  // hosts without risking an early cross-shard arrival.
  travel_timer_ = runtime_.simulator.schedule_bounded(
      travel_time, runtime_.wireless.reaction_bound(), [this, target] {
        RDP_PROF_SCOPE(kCore);
        if (!active_) {
          // Powered off in transit; arrival is a plain placement.
          runtime_.wireless.place_mh(id_, target);
          return;
        }
        runtime_.wireless.place_mh(id_, target);
        send_greet_or_join();
      });
}

void MobileHostAgent::leave() {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(active_, id_.str() + " left while inactive");
  for (const PendingRequest& entry : pending_) {
    runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                .at = runtime_.simulator.now(),
                                .mh = id_,
                                .request = entry.request,
                                .reason = RequestLossReason::kMhLeft});
  }
  pending_.clear();
  reissue_timer_.cancel();
  // Whatever the channel still holds belongs to the lost requests above.
  if (arq_ != nullptr) arq_->clear();
  uplink(net::make_message<MsgLeave>());
  registration_timer_.cancel();
  active_ = false;
  registered_ = false;
  in_system_ = false;
  runtime_.wireless.set_mh_active(id_, false);
}

void MobileHostAgent::send_greet_or_join() {
  greet_sent_ = runtime_.simulator.now();
  registration_attempts_ = 0;
  if (!joined_) {
    uplink(net::make_message<MsgJoin>());
  } else {
    uplink(net::make_message<MsgGreet>(resp_mss_));
  }
  arm_registration_timer();
}

void MobileHostAgent::arm_registration_timer() {
  registration_timer_.cancel();
  registration_timer_ = runtime_.simulator.schedule_bounded(
      runtime_.config.registration_retry, runtime_.wireless.reaction_bound(),
      [this] {
        RDP_PROF_SCOPE(kCore);
        if (registered_ || !active_ || !in_system_) return;
        if (!runtime_.wireless.mh_cell(id_).has_value()) return;
        if (++registration_attempts_ >
            runtime_.config.max_registration_retries) {
          runtime_.counters.increment("mh.registration_gave_up");
          return;
        }
        runtime_.counters.increment("mh.registration_retries");
        if (!joined_) {
          uplink(net::make_message<MsgJoin>());
        } else {
          uplink(net::make_message<MsgGreet>(resp_mss_));
        }
        arm_registration_timer();
      });
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

RequestId MobileHostAgent::issue_request(NodeAddress server, std::string body,
                                         bool stream) {
  RDP_PROF_SCOPE(kCore);
  RDP_CHECK(in_system_, id_.str() + " issued a request after leaving");
  const RequestId request{id_, ++next_request_seq_};
  PendingRequest& entry = pending_.emplace_back();
  entry.request = request;
  if (runtime_.config.mh_reissue) {
    entry.watched = true;
    entry.server = server;
    entry.body = body;  // keep a copy for the watchdog before the move below
    entry.stream = stream;
    entry.last_progress = runtime_.simulator.now();
    if (active_) arm_reissue_timer();
  }
  runtime_.observer.on_event({.kind = Hook::kRequestIssued,
                              .at = runtime_.simulator.now(),
                              .mh = id_,
                              .request = request,
                              .id_a = server.value()});
  auto payload = net::make_message<MsgUplinkRequest>(request, server,
                                                     std::move(body), stream);
  if (registered_ && active_) {
    uplink(std::move(payload));
  } else {
    outbox_.push_back(std::move(payload));
  }
  return request;
}

RequestId MobileHostAgent::issue_request(common::ServerId server,
                                         std::string body, bool stream) {
  return issue_request(runtime_.directory.server_address(server),
                       std::move(body), stream);
}

void MobileHostAgent::unsubscribe(RequestId request) {
  RDP_PROF_SCOPE(kCore);
  const auto it = find_pending(request);
  if (it == pending_.end()) return;
  // The application no longer cares about further results, so the watchdog
  // must not resurrect the subscription after a crash.
  it->watched = false;
  auto payload = net::make_message<MsgUnsubscribe>(request);
  if (registered_ && active_) {
    uplink(std::move(payload));
  } else {
    outbox_.push_back(std::move(payload));
  }
}

void MobileHostAgent::flush_outbox() {
  while (!outbox_.empty() && registered_ && active_) {
    uplink(std::move(outbox_.front()));
    outbox_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Re-issue watchdog (fault-tolerance extension).
// ---------------------------------------------------------------------------

void MobileHostAgent::arm_reissue_timer() {
  if (!runtime_.config.mh_reissue) return;
  if (reissue_timer_.pending()) return;
  reissue_timer_ = runtime_.simulator.schedule_bounded(
      runtime_.config.reissue_timeout, runtime_.wireless.reaction_bound(),
      [this] { run_reissue_check(); }, sim::EventPriority::kLow);
}

void MobileHostAgent::run_reissue_check() {
  RDP_PROF_SCOPE(kCore);
  if (!in_system_ || !active_) return;  // re-armed on reactivate()
  if (!runtime_.wireless.mh_cell(id_).has_value()) {
    // Mid-transit: arrival is already scheduled, just check again later.
    arm_reissue_timer();
    return;
  }
  bool any_stale = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingRequest& entry = *it;
    const common::Duration silence =
        runtime_.simulator.now() - entry.last_progress;
    if (!entry.watched || silence < runtime_.config.reissue_timeout) {
      ++it;
      continue;
    }
    if (entry.reissues >= runtime_.config.max_reissue_attempts) {
      runtime_.counters.increment("mh.reissue_gave_up");
      runtime_.observer.on_event(
          {.kind = Hook::kReissueExhausted,
           .at = runtime_.simulator.now(),
           .mh = id_,
           .request = entry.request,
           .attempt = static_cast<std::uint32_t>(entry.reissues)});
      runtime_.observer.on_event(
          {.kind = Hook::kRequestLost,
           .at = runtime_.simulator.now(),
           .mh = id_,
           .request = entry.request,
           .reason = RequestLossReason::kReissueExhausted});
      it = pending_.erase(it);
      continue;
    }
    ++entry.reissues;
    any_stale = true;
    entry.last_progress = runtime_.simulator.now();
    runtime_.counters.increment("mh.reissues");
    runtime_.observer.on_event(
        {.kind = Hook::kRequestReissued,
         .at = runtime_.simulator.now(),
         .mh = id_,
         .request = entry.request,
         .attempt = static_cast<std::uint32_t>(entry.reissues)});
    // Queue the copy rather than uplinking it now: the re-registration
    // below must complete first, or the request would race the greet on
    // the wireless network and hit an Mss that does not know the Mh.
    outbox_.push_back(net::make_message<MsgUplinkRequest>(
        entry.request, entry.server, entry.body, entry.stream));
    ++it;
  }
  if (any_stale) {
    // Silence this long means the respMss (or our registration with it) is
    // gone — re-register from scratch.  A checkpoint-restored proxy
    // re-binds on the resulting join/greet; the queued request copies are
    // absorbed as duplicates if it still holds them.
    registered_ = false;
    if (arq_ != nullptr) arq_->pause();  // reopens (new epoch) on the ack
    send_greet_or_join();
  }
  if (watching()) arm_reissue_timer();
}

// ---------------------------------------------------------------------------
// Downlink.
// ---------------------------------------------------------------------------

void MobileHostAgent::on_downlink(common::CellId /*cell*/,
                                  const net::PayloadPtr& payload) {
  RDP_PROF_SCOPE(kCore);
  if (const auto* ack = net::message_cast<MsgRegistrationAck>(payload)) {
    if (!registered_) {
      registered_ = true;
      joined_ = true;
      resp_mss_ = ack->mss;
      registration_timer_.cancel();
      runtime_.observer.on_event(
          {.kind = Hook::kMhRegistered,
           .at = runtime_.simulator.now(),
           .mh = id_,
           .id_a = ack->mss.value(),
           .duration = runtime_.simulator.now() - greet_sent_});
      // New registration, new ARQ epoch: the backlog (and anything unacked
      // from the previous respMss) renumbers and retransmits first.
      if (arq_ != nullptr) arq_->open();
      flush_outbox();
    }
    return;
  }
  if (const auto* arq_ack = net::message_cast<MsgArqAck>(payload)) {
    if (arq_ != nullptr) {
      arq_->on_ack(*arq_ack);
    } else {
      runtime_.counters.increment("mh.unknown_downlink");
    }
    return;
  }
  if (const auto* result = net::message_cast<MsgDownlinkResult>(payload)) {
    RDP_CHECK(result->request.mh() == id_,
              id_.str() + " received a result for " + result->request.str());
    // Any downlink for the request — duplicate or not — is a sign of life
    // from the respMss chain; reset the re-issue watchdog for it.
    const auto pending = find_pending(result->request);
    if (pending != pending_.end() && pending->watched) {
      if (result->final) {
        pending->watched = false;
      } else {
        pending->last_progress = runtime_.simulator.now();
      }
    }
    const bool duplicate = !delivered_.insert(
        (std::uint64_t{result->request.seq()} << 32) | result->result_seq);
    runtime_.observer.on_event({.kind = Hook::kResultDelivered,
                                .at = runtime_.simulator.now(),
                                .mh = id_,
                                .request = result->request,
                                .seq = result->result_seq,
                                .attempt = result->attempt,
                                .flag_a = result->final,
                                .flag_b = duplicate});
    if (!duplicate) {
      ++deliveries_;
      if (result->final && pending != pending_.end()) pending_.erase(pending);
      if (delivery_callback_) {
        delivery_callback_(Delivery{result->request, result->result_seq,
                                    result->body, result->final});
      }
    } else {
      ++duplicates_;
      runtime_.counters.increment("mh.duplicate_results");
    }
    // Assumption 4: an active Mh acks every message from its respMss —
    // including duplicates, so the proxy learns the result arrived even if
    // an earlier Ack was lost.
    uplink(net::make_message<MsgUplinkAck>(result->request,
                                           result->result_seq),
           runtime_.ack_priority());
    return;
  }
  runtime_.counters.increment("mh.unknown_downlink");
}

}  // namespace rdp::core
