// Mobility models (the paper's prototype planned tests over "several
// patterns of mobility"; these are the patterns).
#pragma once

#include "common/time.h"
#include "workload/topology.h"

namespace rdp::workload {

using common::Duration;

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  // Cell the mobile host starts in.
  [[nodiscard]] virtual CellId initial_cell(common::Rng& rng) = 0;
  // Next cell after the current one (may equal `current`: no move).
  [[nodiscard]] virtual CellId next_cell(CellId current, common::Rng& rng) = 0;
  // Residence time before the next move.
  [[nodiscard]] virtual Duration dwell(common::Rng& rng) = 0;
};

// Random walk over the topology's adjacency with exponential residence
// times — the workhorse model for the experiments.
class RandomWalkMobility final : public MobilityModel {
 public:
  RandomWalkMobility(const CellTopology& topology, Duration mean_dwell)
      : topology_(topology), mean_dwell_(mean_dwell) {}

  CellId initial_cell(common::Rng& rng) override {
    return topology_.random_cell(rng);
  }
  CellId next_cell(CellId current, common::Rng& rng) override {
    return topology_.random_neighbor(current, rng);
  }
  Duration dwell(common::Rng& rng) override {
    return rng.exponential_duration(mean_dwell_);
  }

 private:
  const CellTopology& topology_;
  Duration mean_dwell_;
};

// Teleport to any other cell uniformly (stress model: maximal locality
// churn for hand-off chains).
class UniformJumpMobility final : public MobilityModel {
 public:
  UniformJumpMobility(const CellTopology& topology, Duration mean_dwell)
      : topology_(topology), mean_dwell_(mean_dwell) {}

  CellId initial_cell(common::Rng& rng) override {
    return topology_.random_cell(rng);
  }
  CellId next_cell(CellId current, common::Rng& rng) override {
    CellId target = topology_.random_cell(rng);
    while (target == current && topology_.size() > 1) {
      target = topology_.random_cell(rng);
    }
    return target;
  }
  Duration dwell(common::Rng& rng) override {
    return rng.exponential_duration(mean_dwell_);
  }

 private:
  const CellTopology& topology_;
  Duration mean_dwell_;
};

// Deterministic commuting between two adjacent cells with a fixed
// residence time (the worst case for result chasing: predictable,
// relentless migration).
class PingPongMobility final : public MobilityModel {
 public:
  PingPongMobility(const CellTopology& topology, Duration dwell)
      : topology_(topology), dwell_(dwell) {}

  CellId initial_cell(common::Rng& rng) override {
    home_ = topology_.random_cell(rng);
    away_ = topology_.random_neighbor(home_, rng);
    return home_;
  }
  CellId next_cell(CellId current, common::Rng&) override {
    return current == home_ ? away_ : home_;
  }
  Duration dwell(common::Rng&) override { return dwell_; }

 private:
  const CellTopology& topology_;
  Duration dwell_;
  CellId home_, away_;
};

// No movement at all (control group).
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(const CellTopology& topology)
      : topology_(topology) {}

  CellId initial_cell(common::Rng& rng) override {
    return topology_.random_cell(rng);
  }
  CellId next_cell(CellId current, common::Rng&) override { return current; }
  Duration dwell(common::Rng&) override {
    return Duration::seconds(3600);  // effectively never
  }

 private:
  const CellTopology& topology_;
};

}  // namespace rdp::workload
