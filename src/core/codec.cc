#include "core/codec.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <typeinfo>

#include "common/check.h"
#include "obs/perf_probe.h"

namespace rdp::core {
namespace {

using net::Declared;
using net::put;
using net::Reader;
using net::Writer;

// The sender never nests ArqData (the ARQ channel wraps bare uplink
// messages exactly once), but the decoder must survive hostile bytes: an
// unbounded recursive decode turns a small crafted buffer into a stack
// overflow.  Anything deeper than this is corrupt by construction.
constexpr int kMaxArqNesting = 4;

// A Writer that nests a carried message as a length-prefixed encoding.
class Encoder : public Writer {
 public:
  void message(const net::MessageBase& inner) {
    const std::vector<std::uint8_t> bytes = encode(inner);
    str({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  }
};

// A Reader that knows how many arqData frames enclose what it reads.
class Source : public Reader {
 public:
  Source(const std::uint8_t* data, std::size_t size, int depth)
      : Reader(data, size), depth_(depth) {}
  [[nodiscard]] int depth() const { return depth_; }

 private:
  int depth_;
};

net::PayloadPtr decode_impl(const std::uint8_t* data, std::size_t size,
                            int depth);

// --- One get per field type (net/codec.h has the puts) --------------------

void get(Source& in, bool& value) { value = in.boolean(); }
void get(Source& in, std::uint32_t& value) { value = in.u32(); }
void get(Source& in, std::uint64_t& value) { value = in.u64(); }
void get(Source& in, std::string& value) { value = in.str(); }
template <typename Tag>
void get(Source& in, common::Id<Tag>& id) {
  id = common::Id<Tag>(in.u32());
}
void get(Source& in, RequestId& request) {
  const MhId mh(in.u32());
  const std::uint32_t seq = in.u32();
  request = RequestId(mh, seq);
}
// Kinds come off the wire: reject hostile values instead of carrying an
// out-of-range enum into the protocol engines.
void get(Source& in, MembershipEventKind& kind) {
  const std::uint8_t raw = in.u8();
  if (raw > static_cast<std::uint8_t>(MembershipEventKind::kAlive)) {
    throw net::CodecError("bad membership event kind");
  }
  kind = static_cast<MembershipEventKind>(raw);
}
void get(Source& in, MembershipReportKind& kind) {
  const std::uint8_t raw = in.u8();
  if (raw > static_cast<std::uint8_t>(MembershipReportKind::kRejoin)) {
    throw net::CodecError("bad membership report kind");
  }
  kind = static_cast<MembershipReportKind>(raw);
}
void get(Source& in, net::PayloadPtr& inner) {
  if (in.depth() >= kMaxArqNesting) {
    throw net::CodecError("ARQ nesting too deep");
  }
  const std::string nested = in.str();
  inner = decode_impl(reinterpret_cast<const std::uint8_t*>(nested.data()),
                      nested.size(), in.depth() + 1);
}

// --- Structures: a fields() declaration, or a vector of them ---------------

// The decoded values of T's fields(), in wire order.
template <typename Tuple>
struct ValuesOf;
template <typename... Fields>
struct ValuesOf<std::tuple<Fields...>> {
  using type = std::tuple<std::remove_cvref_t<Fields>...>;
};
template <Declared T>
using Values =
    typename ValuesOf<decltype(std::declval<const T&>().fields())>::type;

// Declared ahead: a structure's fields may be vectors of structures.
template <Declared T>
void get(Source& in, T& value);
template <typename T>
void get(Source& in, std::vector<T>& items);

template <Declared T>
Values<T> get_values(Source& in) {
  Values<T> values;
  // A fold over the comma operator reads the fields left to right.
  std::apply([&in](auto&... field) { (get(in, field), ...); }, values);
  return values;
}

template <Declared T>
void get(Source& in, T& value) {
  value = std::make_from_tuple<T>(get_values<T>(in));
}

template <typename T>
void get(Source& in, std::vector<T>& items) {
  const std::uint32_t count = in.u32();
  // Counts come off the wire: cap the reserve by what the buffer could
  // possibly hold so a corrupt count raises CodecError underflow below
  // instead of a multi-GB allocation here.
  items.reserve(std::min<std::size_t>(count, in.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) get(in, items.emplace_back());
}

// --- The tag <-> type mapping ----------------------------------------------

struct Entry {
  MessageTag tag;
  const std::type_info* type;
  void (*encode)(Encoder&, const net::MessageBase&);
  net::PayloadPtr (*decode)(Source&);
};

template <typename T>
constexpr Entry entry(MessageTag tag) {
  // Encode matches the exact dynamic type, so a subclass of a core
  // message must not exist.
  static_assert(std::is_final_v<T>);
  return {tag, &typeid(T),
          [](Encoder& out, const net::MessageBase& message) {
            put(out, static_cast<const T&>(message));
          },
          [](Source& in) {
            return std::apply(
                [](auto&&... field) {
                  return net::make_message<T>(std::move(field)...);
                },
                get_values<T>(in));
          }};
}

// Row i carries tag i + 1 (checked below), so decode indexes it directly.
constexpr std::array kEntries = {
    entry<MsgJoin>(MessageTag::kJoin),
    entry<MsgLeave>(MessageTag::kLeave),
    entry<MsgGreet>(MessageTag::kGreet),
    entry<MsgUplinkRequest>(MessageTag::kUplinkRequest),
    entry<MsgUnsubscribe>(MessageTag::kUnsubscribe),
    entry<MsgUplinkAck>(MessageTag::kUplinkAck),
    entry<MsgRegistrationAck>(MessageTag::kRegistrationAck),
    entry<MsgDownlinkResult>(MessageTag::kDownlinkResult),
    entry<MsgForwardRequest>(MessageTag::kForwardRequest),
    entry<MsgForwardUnsubscribe>(MessageTag::kForwardUnsubscribe),
    entry<MsgServerRequest>(MessageTag::kServerRequest),
    entry<MsgServerUnsubscribe>(MessageTag::kServerUnsubscribe),
    entry<MsgServerResult>(MessageTag::kServerResult),
    entry<MsgServerAck>(MessageTag::kServerAck),
    entry<MsgResultForward>(MessageTag::kResultForward),
    entry<MsgDelPref>(MessageTag::kDelPref),
    entry<MsgAckForward>(MessageTag::kAckForward),
    entry<MsgDereg>(MessageTag::kDereg),
    entry<MsgDeregAck>(MessageTag::kDeregAck),
    entry<MsgUpdateCurrentLoc>(MessageTag::kUpdateCurrentLoc),
    entry<MsgProxyGone>(MessageTag::kProxyGone),
    entry<MsgPrefRestore>(MessageTag::kPrefRestore),
    entry<MsgReplicaUpdate>(MessageTag::kReplicaUpdate),
    entry<MsgReplicaErase>(MessageTag::kReplicaErase),
    entry<MsgReplicaHeartbeat>(MessageTag::kReplicaHeartbeat),
    entry<MsgReplicaResync>(MessageTag::kReplicaResync),
    entry<MsgPrefRepair>(MessageTag::kPrefRepair),
    entry<MsgPrefRepairNack>(MessageTag::kPrefRepairNack),
    entry<MsgTransferResume>(MessageTag::kTransferResume),
    entry<MsgArqData>(MessageTag::kArqData),
    entry<MsgArqAck>(MessageTag::kArqAck),
    entry<MsgChainAck>(MessageTag::kChainAck),
    entry<MsgReplicaFence>(MessageTag::kReplicaFence),
    entry<MsgReplicaFenceAck>(MessageTag::kReplicaFenceAck),
    entry<MsgMembershipEvent>(MessageTag::kMembershipEvent),
    entry<MsgMembershipReport>(MessageTag::kMembershipReport),
    entry<MsgMembershipProbe>(MessageTag::kMembershipProbe),
    entry<MsgPrimaryFence>(MessageTag::kPrimaryFence),
};
static_assert([] {
  for (std::size_t i = 0; i < kEntries.size(); ++i) {
    if (static_cast<std::size_t>(kEntries[i].tag) != i + 1) return false;
  }
  return true;
}());

const Entry* find_entry(const net::MessageBase& message) {
  const std::type_info& type = typeid(message);
  for (const Entry& row : kEntries) {
    if (*row.type == type) return &row;
  }
  return nullptr;
}

net::PayloadPtr decode_impl(const std::uint8_t* data, std::size_t size,
                            int depth) {
  Source in(data, size, depth);
  const std::uint8_t tag = in.u8();
  if (tag == 0 || tag > kEntries.size()) {
    throw net::CodecError("unknown message tag");
  }
  net::PayloadPtr payload = kEntries[tag - 1].decode(in);
  if (!in.done()) throw net::CodecError("trailing bytes after message");
  return payload;
}

}  // namespace

bool is_core_message(const net::MessageBase& message) {
  return find_entry(message) != nullptr;
}

std::vector<std::uint8_t> encode(const net::MessageBase& message) {
  RDP_PROF_SCOPE(kCodecEncode);
  const Entry* row = find_entry(message);
  RDP_CHECK(row != nullptr,
            std::string("cannot encode message type: ") + message.name());
  Encoder encoder;
  put(encoder, row->tag);
  row->encode(encoder, message);
  return encoder.bytes();
}

net::PayloadPtr decode(const std::vector<std::uint8_t>& buffer) {
  RDP_PROF_SCOPE(kCodecDecode);
  return decode_impl(buffer.data(), buffer.size(), 0);
}

}  // namespace rdp::core
