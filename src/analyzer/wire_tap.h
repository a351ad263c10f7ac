// WireTap: feeds the passive analyzer the raw bytes of everything that
// crosses the two networks.
//
// The tap has no subscriptions of its own.  A world's instruments
// (harness/instruments.h) call its two entry points with every wired send
// and every radio frame: live from the networks' observers on the single
// kernel, from the shard-tap merger's barrier replay on the sharded one.
//
// Independence is the point: the tap *re-encodes* every payload with the
// production codec and hands the analyzer bytes, never object state.  The
// analyzer then decodes those bytes itself, so its entire view of the
// protocol is what a passive observer of the wire format would see.
// Payloads outside the core codec (e.g. causal-order wrappers) are
// unwrapped once and retried; if still unencodable they are counted as
// opaque and skipped.  ARQ frames are never unwrapped — the epoch/seq/
// attempt header is exactly what the §11 window reconstruction needs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analyzer/analyzer.h"
#include "common/ids.h"
#include "common/time.h"
#include "net/message.h"
#include "net/wireless.h"

namespace rdp::analyzer {

class WireTap {
 public:
  explicit WireTap(Analyzer& analyzer) : analyzer_(analyzer) {}

  // Wired envelopes carry their send time; a frame's emission time comes
  // from the caller.
  void on_wired_send(const net::Envelope& envelope);
  void on_wireless_frame(common::SimTime at, common::MhId mh,
                         const net::PayloadPtr& payload, bool uplink,
                         net::FramePhase phase);

  // Test seam: return true to hide a frame from the analyzer while the
  // system still processes it — a deliberate tap blind spot used to prove
  // the analyzer notices protocol activity whose wireless evidence is
  // missing (see analyzer_test).
  using FrameFilter =
      std::function<bool(common::MhId, const net::PayloadPtr&, bool uplink)>;
  void set_frame_filter(FrameFilter filter) { filter_ = std::move(filter); }

 private:
  // Re-encode a payload into core wire bytes; false (with `out` empty)
  // when the payload is opaque to the core codec even after one unwrap.
  bool encode_for_tap(const net::PayloadPtr& payload,
                      std::vector<std::uint8_t>& out) const;

  Analyzer& analyzer_;
  FrameFilter filter_;
};

}  // namespace rdp::analyzer
