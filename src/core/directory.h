// Name service for the static network.
//
// Paper §2: "each server maintains a fixed address which can be obtained by
// querying a directory service."  The directory also records the Mss
// serving each cell, which the hand-off protocol uses to resolve the old
// Mss named in a greet message.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace rdp::core {

using common::CellId;
using common::MssId;
using common::NodeAddress;
using common::ServerId;

class Directory {
 public:
  // Allocates a fresh wired-network address.
  [[nodiscard]] NodeAddress allocate_address() {
    return NodeAddress(next_address_++);
  }

  void register_mss(MssId mss, CellId cell, NodeAddress address) {
    RDP_CHECK(!mss_address_.contains(mss), "Mss registered twice");
    mss_address_.emplace(mss, address);
    RDP_CHECK(!cell_mss_.contains(cell), "cell registered twice");
    cell_mss_.emplace(cell, mss);
  }

  void register_server(ServerId server, NodeAddress address) {
    RDP_CHECK(!server_address_.contains(server), "server registered twice");
    server_address_.emplace(server, address);
  }

  [[nodiscard]] NodeAddress mss_address(MssId mss) const {
    auto it = mss_address_.find(mss);
    RDP_CHECK(it != mss_address_.end(), "unknown Mss " + mss.str());
    return it->second;
  }

  [[nodiscard]] MssId mss_of_cell(CellId cell) const {
    auto it = cell_mss_.find(cell);
    RDP_CHECK(it != cell_mss_.end(), "unknown cell " + cell.str());
    return it->second;
  }

  [[nodiscard]] NodeAddress server_address(ServerId server) const {
    auto it = server_address_.find(server);
    RDP_CHECK(it != server_address_.end(), "unknown server " + server.str());
    return it->second;
  }

  [[nodiscard]] std::size_t mss_count() const { return mss_address_.size(); }

  // --- liveness (fault-injection subsystem) --------------------------------
  // A crashed Mss keeps its directory entry (its address and cell do not
  // change), but is flagged down so protocol code can detect a stale
  // binding instead of waiting forever on a dead host — e.g. a hand-off
  // must not start against a crashed old Mss whose pref table is gone.
  void set_mss_up(MssId mss, bool up) {
    RDP_CHECK(mss_address_.contains(mss), "liveness for unknown " + mss.str());
    if (up) {
      down_.erase(mss);
    } else {
      down_.insert(mss);
    }
  }

  [[nodiscard]] bool mss_up(MssId mss) const { return !down_.contains(mss); }

  // --- membership (src/replication membership service) ---------------------
  // An Mss that stays down (or unreachable) past the departure threshold is
  // marked *departed*: it loses its backup-chain roles, its own chain is
  // frozen so promotion order stays stable, and — the partition case — a
  // still-running departed primary must demote itself instead of racing the
  // promoted backup.  Departure is orthogonal to liveness: a partitioned
  // primary is departed but up.
  void set_mss_departed(MssId mss, bool departed) {
    RDP_CHECK(mss_address_.contains(mss), "departure for unknown " + mss.str());
    if (departed) {
      departed_.insert(mss);
    } else {
      departed_.erase(mss);
    }
  }

  [[nodiscard]] bool mss_departed(MssId mss) const {
    return departed_.contains(mss);
  }

  // Up and not departed: eligible to serve, replicate, and promote.
  [[nodiscard]] bool mss_live(MssId mss) const {
    return mss_up(mss) && !mss_departed(mss);
  }

  // Every registered Mss, in id order (membership recomputation and chain
  // assignment iterate this so results are deterministic).
  [[nodiscard]] std::vector<MssId> mss_ids() const {
    std::vector<MssId> out;
    out.reserve(mss_address_.size());
    for (const auto& [mss, addr] : mss_address_) out.push_back(mss);
    std::sort(out.begin(), out.end(),
              [](MssId a, MssId b) { return a.value() < b.value(); });
    return out;
  }

  // Monotonic membership-view version; bumped on every departure/rejoin.
  // Re-replication fences carry it so a stale fence is recognizable.
  [[nodiscard]] std::uint64_t membership_epoch() const { return epoch_; }
  void bump_membership_epoch() { ++epoch_; }

  // Wired address of the membership service, when one runs in this world.
  // invalid() otherwise (unit worlds without the harness wiring).
  void set_membership_service(NodeAddress address) {
    membership_service_ = address;
  }
  [[nodiscard]] NodeAddress membership_service() const {
    return membership_service_;
  }

  // Reverse lookup: which Mss owns this wired address?  invalid() when the
  // address belongs to no Mss (e.g. a server).  Used by the replication
  // subsystem to map a pref's proxy_host back to a (possibly down) Mss.
  [[nodiscard]] MssId mss_at(NodeAddress address) const {
    for (const auto& [mss, addr] : mss_address_) {
      if (addr == address) return mss;
    }
    return MssId::invalid();
  }

  // --- primary/backup replication (src/replication) ------------------------
  // Each primary Mss carries an ordered chain of k backups (head first, tail
  // last).  The membership service recomputes chains on departure/rejoin;
  // the chain of a non-live primary is frozen so its surviving backups agree
  // on promotion order.
  void set_backups(MssId primary, std::vector<MssId> chain) {
    RDP_CHECK(mss_address_.contains(primary), "backups for unknown primary");
    for (const MssId backup : chain) {
      RDP_CHECK(mss_address_.contains(backup), "unknown backup Mss");
      RDP_CHECK(primary != backup, "an Mss cannot back itself");
    }
    backups_of_[primary] = std::move(chain);
  }

  // The primary's backup chain in shipping order; empty when the primary has
  // no backups (replication off).
  [[nodiscard]] const std::vector<MssId>& backups_of(MssId primary) const {
    static const std::vector<MssId> kNone;
    auto it = backups_of_.find(primary);
    return it == backups_of_.end() ? kNone : it->second;
  }

  // All primaries whose chain contains `backup`, in id order (a restarted
  // backup uses this to ask each of them for a shadow-table resync).
  [[nodiscard]] std::vector<MssId> primaries_backed_by(MssId backup) const {
    std::vector<MssId> out;
    for (const auto& [primary, chain] : backups_of_) {
      if (std::find(chain.begin(), chain.end(), backup) != chain.end()) {
        out.push_back(primary);
      }
    }
    std::sort(out.begin(), out.end(),
              [](MssId a, MssId b) { return a.value() < b.value(); });
    return out;
  }

 private:
  std::unordered_map<MssId, NodeAddress> mss_address_;
  std::unordered_map<CellId, MssId> cell_mss_;
  std::unordered_map<ServerId, NodeAddress> server_address_;
  std::unordered_map<MssId, std::vector<MssId>> backups_of_;
  std::unordered_set<MssId> down_;
  std::unordered_set<MssId> departed_;
  std::uint64_t epoch_ = 0;
  NodeAddress membership_service_ = NodeAddress::invalid();
  std::uint32_t next_address_ = 0;
};

}  // namespace rdp::core
