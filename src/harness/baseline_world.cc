#include "harness/baseline_world.h"

namespace rdp::harness {

BaselineWorld::BaselineWorld(BaselineScenarioConfig config)
    : config_(config),
      rng_(config.base.seed),
      wired_(simulator_, common::Rng(config.base.seed ^ 0x9e3779b9ULL),
             config.base.wired),
      wireless_(simulator_, common::Rng(config.base.seed ^ 0x51c64e6dULL),
                config.base.wireless) {
  if (config_.base.cost.enabled) {
    cost_ledger_ = std::make_unique<obs::CostLedger>(config_.base.cost);
    wired_.add_send_observer(
        [ledger = cost_ledger_.get()](const net::Envelope& envelope) {
          ledger->on_wired_send(envelope);
        });
    wireless_.add_frame_observer(
        [ledger = cost_ledger_.get()](common::MhId mh,
                                      const net::PayloadPtr& payload,
                                      bool uplink, net::FramePhase phase) {
          ledger->on_wireless_frame(mh, payload, uplink, phase);
        });
  }

  // The baselines do not require causal order (Mobile IP runs over plain
  // IP), so the wired network is used directly.
  runtime_ = std::make_unique<core::Runtime>(core::Runtime{
      simulator_, wired_, wireless_, directory_, config_.base.rdp, observers_,
      counters_});

  for (int i = 0; i < config_.base.num_mss; ++i) {
    const common::MssId id(static_cast<std::uint32_t>(i));
    const common::CellId cell_id = cell(i);
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_mss(id, cell_id, address);
    auto mss = std::make_unique<baseline::MipMss>(*runtime_, config_.baseline,
                                                  id, cell_id, address);
    wired_.attach(address, mss.get());
    wireless_.register_cell(cell_id, id, mss.get());
    msses_.push_back(std::move(mss));
  }

  for (int i = 0; i < config_.base.num_servers; ++i) {
    const common::ServerId id(static_cast<std::uint32_t>(i));
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_server(id, address);
    auto server = std::make_unique<core::Server>(
        *runtime_, id, address, config_.base.server, rng_.fork());
    wired_.attach(address, server.get());
    servers_.push_back(std::move(server));
  }

  for (int i = 0; i < config_.base.num_mh; ++i) {
    mhs_.push_back(std::make_unique<baseline::MipHostAgent>(
        *runtime_, config_.baseline,
        common::MhId(static_cast<std::uint32_t>(i))));
  }
}

}  // namespace rdp::harness
