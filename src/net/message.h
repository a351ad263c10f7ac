// Message plumbing shared by every protocol in the repository.
//
// Messages are immutable, reference-counted payloads.  The network layers
// never inspect payload contents; they only need a stable type name (for
// statistics and traces) and a wire size (for byte accounting).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/ids.h"
#include "common/pool_alloc.h"
#include "common/time.h"
#include "net/codec.h"

namespace rdp::net {

using common::NodeAddress;

// Every frame starts with a u32 length prefix: the same 4 bytes the codec
// writes before an arqData frame's inner message, so a message costs the
// same alone or nested.
inline constexpr std::size_t kFrameHeader = 4;

class MessageBase {
 public:
  virtual ~MessageBase() = default;

  // Stable, human-readable message type name, e.g. "update_currentLoc".
  [[nodiscard]] virtual const char* name() const = 0;

  // Bytes on the wire, the one size every byte counter, the cost ledger
  // and the replication tally read: the frame header plus the encoding.
  [[nodiscard]] std::size_t wire_size() const {
    return kFrameHeader + encoded_size();
  }

  // Bytes of the encoding: one tag byte plus the fields (see Message below).
  [[nodiscard]] virtual std::size_t encoded_size() const = 0;

  // One-line rendering for traces; defaults to the type name.
  [[nodiscard]] virtual std::string describe() const { return name(); }

  // The innermost protocol message.  Transport-level wrappers (e.g. the
  // causal layer's envelope) override this to expose the
  // message they carry, so taps can classify a frame by its concrete type
  // while still charging the wrapper's full wire_size().
  [[nodiscard]] virtual const MessageBase& unwrap() const { return *this; }
};

using PayloadPtr = std::shared_ptr<const MessageBase>;

// A message whose fields() declare its wire layout (net/codec.h).  It is
// encoded as a one-byte tag and then its fields, so its size is that byte
// plus the codec's size-only walk over fields().
template <typename Derived>
class Message : public MessageBase {
 public:
  [[nodiscard]] std::size_t encoded_size() const final {
    return 1 + net::encoded_size(static_cast<const Derived&>(*this));
  }
};

// Messages come off the size-class slab pool (common/pool_alloc.h):
// allocate_shared puts the payload and its control block in one pooled
// block, so the steady-state message path costs a magazine pop instead of
// a malloc, and the block recycles when the last reference drops.
template <typename T, typename... Args>
PayloadPtr make_message(Args&&... args) {
  return std::allocate_shared<const T>(common::PoolAllocator<const T>(),
                                       std::forward<Args>(args)...);
}

// Checked downcast helper: returns nullptr when the payload is a different
// message type.
template <typename T>
const T* message_cast(const PayloadPtr& payload) {
  return dynamic_cast<const T*>(payload.get());
}

// A message in flight on the wired network.
struct Envelope {
  NodeAddress src;
  NodeAddress dst;
  PayloadPtr payload;
  common::SimTime sent_at;
  common::SimTime arrives_at;
  std::uint64_t seq = 0;  // global send order, for traces
};

}  // namespace rdp::net
