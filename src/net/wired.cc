#include "net/wired.h"

#include "net/shard_router.h"
#include "obs/perf_probe.h"

namespace rdp::net {

WiredNetwork::WiredNetwork(sim::Simulator& simulator, common::Rng rng,
                           WiredConfig config)
    : simulator_(simulator), rng_(rng), config_(config) {}

void WiredNetwork::enable_shard_mode(ShardRouter* router,
                                     std::uint64_t draw_seed) {
  RDP_CHECK(router != nullptr, "shard mode needs a router");
  RDP_CHECK(fault_hook_ == nullptr,
            "fault injection is not supported in sharded runs");
  router_ = router;
  draw_seed_ = draw_seed;
}

void WiredNetwork::attach(NodeAddress address, Endpoint* endpoint) {
  RDP_CHECK(address.valid(), "cannot attach an invalid address");
  RDP_CHECK(endpoint != nullptr, "cannot attach a null endpoint");
  const bool inserted = endpoints_.emplace(address, endpoint).second;
  RDP_CHECK(inserted, "address already attached: " + address.str());
}

void WiredNetwork::set_fault_hook(FaultHook hook) {
  RDP_CHECK(hook == nullptr || router_ == nullptr,
            "fault injection is not supported in sharded runs");
  fault_hook_ = std::move(hook);
}

common::Duration WiredNetwork::sample_latency(std::uint64_t stream_key,
                                              std::uint64_t stream_seq) {
  const auto jitter_us = config_.jitter.count_micros();
  if (jitter_us <= 0) return config_.base_latency;
  return config_.base_latency +
         common::Duration::micros(
             router_ == nullptr
                 ? rng_.uniform_int(0, jitter_us)
                 : shard_draw_int(draw_seed_, stream_key, stream_seq,
                                  jitter_us));
}

void WiredNetwork::send(NodeAddress src, NodeAddress dst, PayloadPtr payload,
                        sim::EventPriority priority) {
  RDP_CHECK(payload != nullptr, "cannot send a null payload");
  RDP_CHECK(dst.valid(), "cannot send to an invalid address");
  RDP_PROF_SCOPE(kNetWired);

  const common::SimTime now = simulator_.now();
  const FaultDecision fault =
      fault_hook_ ? fault_hook_(src, dst, payload) : FaultDecision{};

  // Senders and byte accounting see the message regardless of its fate on
  // the wire; injected faults strike after transmission.
  Envelope envelope{src, dst, std::move(payload), now, now, next_seq_++};
  ++sent_;
  bytes_ += envelope.payload->wire_size();
  for (const auto& observer : observers_) observer(envelope);

  if (fault.drop) {
    ++faults_dropped_;
    return;
  }

  // Shard mode numbers each link's messages: the number indexes the link's
  // keyed latency draws and orders the arrival among the link's others.
  const std::uint64_t link = link_key(src, dst);
  const std::uint64_t stream_key =
      router_ != nullptr ? wired_stream_key(src, dst) : 0;
  const std::uint64_t stream_seq =
      router_ != nullptr ? (*stream_seq_.try_emplace(link).first)++ : 0;
  common::SimTime arrival =
      now + sample_latency(stream_key, stream_seq) + fault.extra_delay;
  if (fault.extra_delay > common::Duration::zero()) {
    // A reorder-delayed message deliberately escapes the FIFO bookkeeping:
    // it may now arrive after messages sent later on the same link.
    ++faults_reordered_;
  } else {
    // Per-link FIFO: arrival times on one (src,dst) link strictly increase.
    auto [last, fresh] = last_arrival_.try_emplace(link);
    if (!fresh && arrival <= *last) {
      arrival = *last + common::Duration::micros(1);
    }
    *last = arrival;
  }
  envelope.arrives_at = arrival;

  if (router_ != nullptr) {
    router_->route_wired(std::move(envelope), priority, stream_key,
                         stream_seq);
    return;
  }
  simulator_.schedule_at(
      arrival, [this, envelope] { deliver_injected(envelope); }, priority);

  for (int i = 0; i < fault.duplicates; ++i) {
    ++faults_duplicated_;
    Envelope copy = envelope;
    copy.seq = next_seq_++;
    copy.arrives_at = now + sample_latency();  // fresh latency, unclamped
    simulator_.schedule_at(
        copy.arrives_at, [this, copy] { deliver_injected(copy); }, priority);
  }
}

void WiredNetwork::deliver_injected(const Envelope& envelope) {
  RDP_PROF_SCOPE(kNetWired);
  auto it = endpoints_.find(envelope.dst);
  RDP_CHECK(it != endpoints_.end(),
            "wired delivery to unattached address " + envelope.dst.str());
  it->second->on_message(envelope);
}

}  // namespace rdp::net
