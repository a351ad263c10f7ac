// Cell topologies for mobility workloads.
//
// Cells form a graph (vertices = cells, edges = "a mobile host can move
// directly between these cells").  The SIDAM motivating application is a
// metropolitan grid of cells (São Paulo traffic, §1), so grid topologies
// are the default; rings and complete graphs exist for corner-case sweeps.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/rng.h"

namespace rdp::workload {

using common::CellId;

class CellTopology {
 public:
  // width x height grid with 4-neighbour adjacency (cell id = y*width + x).
  [[nodiscard]] static CellTopology grid(int width, int height);
  // n cells in a cycle.
  [[nodiscard]] static CellTopology ring(int n);
  // every cell adjacent to every other.
  [[nodiscard]] static CellTopology complete(int n);

  [[nodiscard]] std::size_t size() const { return adjacency_.size(); }

  [[nodiscard]] const std::vector<CellId>& neighbors(CellId cell) const {
    RDP_CHECK(cell.value() < adjacency_.size(), "unknown cell");
    return adjacency_[cell.value()];
  }

  [[nodiscard]] CellId random_cell(common::Rng& rng) const {
    return CellId(
        static_cast<std::uint32_t>(rng.pick_index(adjacency_.size())));
  }

  [[nodiscard]] CellId random_neighbor(CellId cell, common::Rng& rng) const {
    const auto& options = neighbors(cell);
    RDP_CHECK(!options.empty(), "cell has no neighbors");
    return rng.pick(options);
  }

  // Cell -> shard assignment for the sharded kernel: contiguous blocks of
  // cell ids, so a grid splits into horizontal bands and most single-step
  // migrations stay shard-local.  Static: the world builder knows only the
  // cell count.
  [[nodiscard]] static int cell_shard(CellId cell, std::size_t num_cells,
                                      int shards) {
    RDP_CHECK(shards >= 1, "need at least one shard");
    RDP_CHECK(cell.value() < num_cells, "unknown cell");
    return static_cast<int>(static_cast<std::uint64_t>(cell.value()) *
                            static_cast<std::uint64_t>(shards) / num_cells);
  }

 private:
  explicit CellTopology(std::vector<std::vector<CellId>> adjacency)
      : adjacency_(std::move(adjacency)) {}
  std::vector<std::vector<CellId>> adjacency_;
};

}  // namespace rdp::workload
