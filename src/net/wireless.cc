#include "net/wireless.h"

#include <utility>

#include "net/shard_router.h"
#include "obs/perf_probe.h"

namespace rdp::net {

WirelessChannel::WirelessChannel(sim::Simulator& simulator, common::Rng rng,
                                 WirelessConfig config)
    : simulator_(simulator), rng_(rng), config_(config) {}

void WirelessChannel::enable_shard_mode(ShardRouter* router,
                                        std::uint64_t draw_seed,
                                        const std::vector<MhSnapshot>& mirror) {
  RDP_CHECK(router != nullptr, "shard mode needs a router");
  router_ = router;
  draw_seed_ = draw_seed;
  mirror_ = &mirror;
}

namespace {

// Grow-on-demand slot access for the id-indexed state vectors.
template <typename T>
T& slot_at(std::vector<T>& v, std::uint32_t index) {
  if (index >= v.size()) v.resize(static_cast<std::size_t>(index) + 1);
  return v[index];
}

}  // namespace

void WirelessChannel::register_remote_cell(CellId cell, MssId mss) {
  CellState& state = slot_at(cells_, cell.value());
  RDP_CHECK(!state.known, "cell already registered: " + cell.str());
  state = CellState{mss, nullptr, true};
}

void WirelessChannel::register_cell(CellId cell, MssId mss,
                                    UplinkReceiver* receiver) {
  RDP_CHECK(receiver != nullptr, "cell receiver must not be null");
  CellState& state = slot_at(cells_, cell.value());
  RDP_CHECK(!state.known, "cell already registered: " + cell.str());
  state = CellState{mss, receiver, true};
}

void WirelessChannel::register_mh(MhId mh, DownlinkReceiver* receiver) {
  RDP_CHECK(receiver != nullptr, "mh receiver must not be null");
  MhState& state = slot_at(mhs_, mh.value());
  RDP_CHECK(state.receiver == nullptr, "mh already registered: " + mh.str());
  state = MhState{receiver, {}};
}

const WirelessChannel::CellState& WirelessChannel::cell_state(
    CellId cell) const {
  RDP_CHECK(cell.value() < cells_.size() && cells_[cell.value()].known,
            "unknown cell " + cell.str());
  return cells_[cell.value()];
}

MssId WirelessChannel::mss_of(CellId cell) const {
  return cell_state(cell).mss;
}

const WirelessChannel::MhState& WirelessChannel::mh_state(MhId mh) const {
  RDP_CHECK(mh.value() < mhs_.size() && mhs_[mh.value()].receiver != nullptr,
            "unknown mh " + mh.str());
  return mhs_[mh.value()];
}

WirelessChannel::MhState& WirelessChannel::mh_state(MhId mh) {
  RDP_CHECK(mh.value() < mhs_.size() && mhs_[mh.value()].receiver != nullptr,
            "unknown mh " + mh.str());
  return mhs_[mh.value()];
}

void WirelessChannel::place_mh(MhId mh, CellId cell) {
  RDP_CHECK(cell.value() < cells_.size() && cells_[cell.value()].known,
            "placing mh in unknown cell " + cell.str());
  mh_state(mh).radio.cell = cell;
  record_delta(mh);
}

void WirelessChannel::detach_mh(MhId mh) {
  mh_state(mh).radio.cell = std::nullopt;
  record_delta(mh);
}

void WirelessChannel::set_mh_active(MhId mh, bool active) {
  mh_state(mh).radio.active = active;
  record_delta(mh);
}

void WirelessChannel::record_delta(MhId mh) {
  if (router_ == nullptr) return;
  pending_deltas_.push_back(MhStateDelta{mh, mh_state(mh).radio});
}

std::vector<WirelessChannel::MhStateDelta>
WirelessChannel::take_state_deltas() {
  return std::exchange(pending_deltas_, {});
}

std::optional<CellId> WirelessChannel::mh_cell(MhId mh) const {
  return mh_state(mh).radio.cell;
}

const MhSnapshot& WirelessChannel::snapshot(MhId mh) const {
  if (router_ == nullptr) return mh_state(mh).radio;
  RDP_CHECK(mh.value() < mirror_->size(), "unknown mh " + mh.str());
  return (*mirror_)[mh.value()];
}

bool WirelessChannel::snapshot_mh_active(MhId mh) const {
  return snapshot(mh).active;
}

std::optional<CellId> WirelessChannel::snapshot_mh_cell(MhId mh) const {
  return snapshot(mh).cell;
}

void WirelessChannel::count_drop(bool uplink, DropReason reason) {
  ++(uplink ? uplink_dropped_ : downlink_dropped_);
  ++drops_by_reason_[static_cast<int>(reason)];
}

std::uint64_t WirelessChannel::drops_for(DropReason reason) const {
  return drops_by_reason_[static_cast<int>(reason)];
}

bool WirelessChannel::reaches(const MhSnapshot& mh, CellId cell) {
  if (mh.cell != cell) {
    count_drop(/*uplink=*/false, DropReason::kNotInCell);
    return false;
  }
  if (!mh.active) {
    count_drop(/*uplink=*/false, DropReason::kInactive);
    return false;
  }
  return true;
}

void WirelessChannel::notify(MhId mh, const PayloadPtr& payload, bool uplink,
                             FramePhase phase) const {
  for (const FrameObserver& observer : observers_) {
    observer(mh, payload, uplink, phase);
  }
}

void WirelessChannel::uplink(MhId from, PayloadPtr payload,
                             sim::EventPriority priority) {
  RDP_CHECK(payload != nullptr, "cannot uplink a null payload");
  RDP_PROF_SCOPE(kNetWireless);
  const MhSnapshot& state = mh_state(from).radio;
  RDP_CHECK(state.active, from.str() + " uplinked while inactive");
  RDP_CHECK(state.cell.has_value(), from.str() + " uplinked while in transit");

  ++uplink_sent_;
  uplink_bytes_ += payload->wire_size();
  notify(from, payload, /*uplink=*/true, FramePhase::kSent);
  transmit(/*uplink=*/true, *state.cell, from, std::move(payload), priority);
}

void WirelessChannel::downlink(CellId cell, MhId to, PayloadPtr payload) {
  RDP_CHECK(payload != nullptr, "cannot downlink a null payload");
  RDP_PROF_SCOPE(kNetWireless);
  RDP_CHECK(cell_state(cell).receiver != nullptr,
            "downlink sent from non-owning shard for " + cell.str());
  ++downlink_sent_;
  downlink_bytes_ += payload->wire_size();
  notify(to, payload, /*uplink=*/false, FramePhase::kSent);
  if (!reaches(snapshot(to), cell)) return;
  transmit(/*uplink=*/false, cell, to, std::move(payload),
           sim::EventPriority::kNormal);
}

void WirelessChannel::transmit(bool uplink, CellId cell, MhId mh,
                               PayloadPtr payload,
                               sim::EventPriority priority) {
  // The fate draws.  Single kernel: the channel's rng, in send order.
  // Shard mode: the stream's n-th frame reads keyed draws 2n (loss) and
  // 2n+1 (latency), so its fate does not depend on the shard layout.
  const double loss = uplink ? config_.uplink_loss : config_.downlink_loss;
  const std::int64_t jitter_us = config_.jitter.count_micros();
  std::uint64_t key = 0;
  std::uint64_t n = 0;
  bool lost = false;
  if (router_ == nullptr) {
    lost = rng_.bernoulli(loss);
  } else {
    key = uplink ? uplink_stream_key(mh, cell) : downlink_stream_key(cell, mh);
    n = (*stream_seq_.try_emplace(key).first)++;
    lost = shard_draw_unit(draw_seed_, key, 2 * n) < loss;
  }
  if (lost || (drop_filter_ && drop_filter_(mh, payload, uplink))) {
    count_drop(uplink, DropReason::kLoss);
    return;
  }
  std::int64_t jitter = 0;
  if (jitter_us > 0) {
    jitter = router_ == nullptr
                 ? rng_.uniform_int(0, jitter_us)
                 : shard_draw_int(draw_seed_, key, 2 * n + 1, jitter_us);
  }
  const common::SimTime arrives_at = simulator_.now() + config_.base_latency +
                                     common::Duration::micros(jitter);

  if (router_ != nullptr) {
    router_->route_wireless(WirelessFrame{uplink, cell, mh, std::move(payload),
                                          priority, arrives_at},
                            key, n);
    return;
  }
  simulator_.schedule_at(
      arrives_at,
      [this, uplink, cell, mh, payload = std::move(payload)] {
        if (uplink) {
          deliver_injected_uplink(mh, cell, payload);
        } else {
          deliver_injected_downlink(cell, mh, payload);
        }
      },
      priority);
}

void WirelessChannel::deliver_injected_uplink(MhId from, CellId cell,
                                              const PayloadPtr& payload) {
  RDP_PROF_SCOPE(kNetWireless);
  UplinkReceiver* receiver = cell_state(cell).receiver;
  RDP_CHECK(receiver != nullptr,
            "uplink injected into non-owning shard for " + cell.str());
  notify(from, payload, /*uplink=*/true, FramePhase::kDelivered);
  receiver->on_uplink(from, payload);
}

void WirelessChannel::deliver_injected_downlink(CellId cell, MhId to,
                                                const PayloadPtr& payload) {
  RDP_PROF_SCOPE(kNetWireless);
  // The live state: in shard mode this runs on the Mh's home shard.
  const MhState& state = mh_state(to);
  if (!reaches(state.radio, cell)) return;
  notify(to, payload, /*uplink=*/false, FramePhase::kDelivered);
  state.receiver->on_downlink(cell, payload);
}

}  // namespace rdp::net
