// Strongly-typed identifiers used throughout the RDP reproduction.
//
// Every kind of entity in the system model of Endler/Silva/Okuda (ICDCS 2000)
// gets its own identifier type so that a mobile-host id can never be passed
// where a cell id is expected.  Ids are cheap value types (a single integer).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace rdp::common {

// A strongly typed integral identifier.  `Tag` distinguishes instantiations
// and supplies the textual prefix used when printing.
template <typename Tag, typename Rep = std::uint32_t>
class Id {
 public:
  using rep_type = Rep;

  constexpr Id() = default;
  constexpr explicit Id(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  [[nodiscard]] static constexpr Id invalid() { return Id{}; }

  friend constexpr auto operator<=>(Id, Id) = default;

  [[nodiscard]] std::string str() const {
    if (!valid()) return std::string(Tag::prefix()) + "<none>";
    return std::string(Tag::prefix()) + std::to_string(value_);
  }

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    return os << id.str();
  }

 private:
  static constexpr Rep kInvalid = static_cast<Rep>(-1);
  Rep value_ = kInvalid;
};

struct MhTag {
  static constexpr const char* prefix() { return "Mh"; }
};
struct MssTag {
  static constexpr const char* prefix() { return "Mss"; }
};
struct ServerTag {
  static constexpr const char* prefix() { return "Srv"; }
};
struct CellTag {
  static constexpr const char* prefix() { return "Cell"; }
};
struct ProxyTag {
  static constexpr const char* prefix() { return "Proxy"; }
};
struct NodeTag {
  static constexpr const char* prefix() { return "Node"; }
};
struct RegionTag {
  static constexpr const char* prefix() { return "Region"; }
};
struct GroupTag {
  static constexpr const char* prefix() { return "Group"; }
};

// Identity of a mobile host (system-wide unique, Section 2 of the paper).
using MhId = Id<MhTag>;
// Identity of a mobile support station.
using MssId = Id<MssTag>;
// Identity of an application server on the wired network.
using ServerId = Id<ServerTag>;
// Identity of a geographic cell.  In the paper each Mss serves exactly one
// cell, but the two concepts are kept distinct in code.
using CellId = Id<CellTag>;
// Identity of a proxy object *within its hosting Mss* (host address +
// ProxyId globally identify a proxy incarnation).
using ProxyId = Id<ProxyTag>;
// Address of an endpoint on the wired network (Mss or server).
using NodeAddress = Id<NodeTag>;
// Identity of a data region in the traffic-information substrate.
using RegionId = Id<RegionTag>;
// Identity of a multicast group.
using GroupId = Id<GroupTag>;

// A request identifier: globally unique because it embeds the issuing
// mobile host's id together with a per-host sequence number.
class RequestId {
 public:
  constexpr RequestId() = default;
  constexpr RequestId(MhId mh, std::uint32_t seq) : mh_(mh), seq_(seq) {}

  [[nodiscard]] constexpr MhId mh() const { return mh_; }
  [[nodiscard]] constexpr std::uint32_t seq() const { return seq_; }
  [[nodiscard]] constexpr bool valid() const { return mh_.valid(); }
  // Mh id in the high half, sequence number in the low half: a unique
  // 64-bit key for hashing.
  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(mh_.value()) << 32) | seq_;
  }

  friend constexpr auto operator<=>(RequestId, RequestId) = default;

  [[nodiscard]] std::string str() const {
    return "Req(" + mh_.str() + "#" + std::to_string(seq_) + ")";
  }

  friend std::ostream& operator<<(std::ostream& os, RequestId id) {
    return os << id.str();
  }

 private:
  MhId mh_;
  std::uint32_t seq_ = 0;
};

}  // namespace rdp::common

namespace std {
template <typename Tag, typename Rep>
struct hash<rdp::common::Id<Tag, Rep>> {
  size_t operator()(rdp::common::Id<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

template <>
struct hash<rdp::common::RequestId> {
  size_t operator()(rdp::common::RequestId id) const noexcept {
    return std::hash<std::uint64_t>{}(id.packed());
  }
};
}  // namespace std
