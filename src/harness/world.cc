#include "harness/world.h"

namespace rdp::harness {

World::World(ScenarioConfig config)
    : config_(config),
      rng_(config.seed),
      wired_(simulator_, common::Rng(config.seed ^ 0x9e3779b9ULL),
             config.wired),
      causal_(config.causal_order ? std::make_unique<causal::CausalLayer>(wired_)
                                  : nullptr),
      transport_(causal_ ? static_cast<net::WiredTransport&>(*causal_)
                         : static_cast<net::WiredTransport&>(wired_)),
      wireless_(simulator_, common::Rng(config.seed ^ 0x51c64e6dULL),
                config.wireless),
      instruments_(config_, directory_, observers_, "world") {
  wired_.add_send_observer([this](const net::Envelope& envelope) {
    instruments_.on_wired_send(envelope);
  });
  wireless_.add_frame_observer([this](common::MhId mh,
                                       const net::PayloadPtr& payload,
                                       bool uplink, net::FramePhase phase) {
    instruments_.on_wireless_frame(simulator_.now(), mh, payload, uplink,
                                   phase);
  });

  runtime_ = std::make_unique<core::Runtime>(core::Runtime{
      simulator_, transport_, wireless_, directory_, config_.rdp, observers_,
      counters_});

  if (config_.proxy_checkpointing) {
    checkpoint_store_ = std::make_unique<core::ProxyCheckpointStore>(
        simulator_, config_.checkpoint);
  }

  for (int i = 0; i < config_.num_mss; ++i) {
    const common::MssId id(static_cast<std::uint32_t>(i));
    const common::CellId cell_id = cell(i);
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_mss(id, cell_id, address);
    auto mss = std::make_unique<core::Mss>(*runtime_, id, cell_id, address);
    if (checkpoint_store_) mss->set_checkpoint_store(checkpoint_store_.get());
    transport_.attach(address, mss.get());
    wireless_.register_cell(cell_id, id, mss.get());
    msses_.push_back(std::move(mss));
  }

  if (config_.replication.mode != replication::Mode::kOff &&
      config_.num_mss >= 2) {
    // Initial backup chains: Mss i replicates to the k next Mss's in
    // id-ring order (the MembershipService repairs these on departures).
    // Register the assignments first (the Replicator constructor resolves
    // its chain from the directory), then attach the hooks.
    const std::vector<common::MssId> all = directory_.mss_ids();
    for (common::MssId id : all) {
      directory_.set_backups(
          id, replication::compute_chain(all, id, config_.replication.k));
    }
    for (int i = 0; i < config_.num_mss; ++i) {
      replicators_.push_back(std::make_unique<replication::Replicator>(
          *runtime_, *msses_[i], config_.replication));
      msses_[i]->set_replication(replicators_.back().get());
    }
  }

  for (int i = 0; i < config_.num_servers; ++i) {
    const common::ServerId id(static_cast<std::uint32_t>(i));
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_server(id, address);
    auto server = std::make_unique<core::Server>(*runtime_, id, address,
                                                 config_.server, rng_.fork());
    transport_.attach(address, server.get());
    servers_.push_back(std::move(server));
  }

  for (int i = 0; i < config_.num_mh; ++i) {
    mhs_.push_back(std::make_unique<core::MobileHostAgent>(
        *runtime_, common::MhId(static_cast<std::uint32_t>(i))));
  }

  if (!replicators_.empty()) {
    // Allocated last so the membership extension never shifts the address
    // layout of Mss's, servers or anything a seeded scenario depends on.
    membership_ = std::make_unique<replication::MembershipService>(
        *runtime_, config_.replication, directory_.allocate_address());
    observers_.add(membership_.get());
  }
}

core::Mss* World::mss_at(common::NodeAddress address) {
  for (auto& mss : msses_) {
    if (mss->address() == address) return mss.get();
  }
  return nullptr;
}

core::Server& World::add_server(
    const std::function<std::unique_ptr<core::Server>(
        core::Runtime&, common::ServerId, common::NodeAddress, common::Rng)>&
        factory) {
  const common::ServerId id(
      static_cast<std::uint32_t>(servers_.size()));
  const common::NodeAddress address = directory_.allocate_address();
  directory_.register_server(id, address);
  auto server = factory(*runtime_, id, address, rng_.fork());
  transport_.attach(address, server.get());
  servers_.push_back(std::move(server));
  return *servers_.back();
}

}  // namespace rdp::harness
