#include "analyzer/wire_tap.h"

#include "core/codec.h"
#include "obs/perf_probe.h"

namespace rdp::analyzer {

void WireTap::attach(net::WiredNetwork& wired) {
  wired.add_send_observer(
      [this](const net::Envelope& envelope) { on_wired_send(envelope); });
}

void WireTap::attach(net::WirelessChannel& wireless,
                     const sim::Simulator& sim) {
  wireless.add_frame_observer(
      [this, &sim](common::MhId mh, const net::PayloadPtr& payload,
                   bool uplink, net::FramePhase phase) {
        on_wireless_frame(sim.now(), mh, payload, uplink, phase);
      });
}

bool WireTap::encode_for_tap(const net::PayloadPtr& payload,
                             std::vector<std::uint8_t>& out) const {
  // A payload outside the core codec (e.g. a causal-order wrapper) is
  // peeled once.  ARQ frames are core messages, so the §11 header is never
  // lost here.
  const net::MessageBase* layer = payload.get();
  if (!core::is_core_message(*layer)) {
    layer = &payload->unwrap();
    if (!core::is_core_message(*layer)) return false;
  }
  out = core::encode(*layer);
  return true;
}

void WireTap::on_wired_send(const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kAnalyzer);
  std::vector<std::uint8_t> bytes;
  if (!encode_for_tap(envelope.payload, bytes)) {
    analyzer_.note_opaque(envelope.sent_at, /*wired=*/true);
    return;
  }
  analyzer_.on_wired_bytes(envelope.sent_at, envelope.src, envelope.dst,
                           bytes);
}

void WireTap::on_wireless_frame(common::SimTime at, common::MhId mh,
                                const net::PayloadPtr& payload, bool uplink,
                                net::FramePhase phase) {
  if (filter_ && filter_(mh, payload, uplink)) return;
  RDP_PROF_SCOPE(kAnalyzer);
  std::vector<std::uint8_t> bytes;
  if (!encode_for_tap(payload, bytes)) {
    analyzer_.note_opaque(at, /*wired=*/false);
    return;
  }
  analyzer_.on_wireless_bytes(at, mh, uplink, phase, bytes);
}

}  // namespace rdp::analyzer
