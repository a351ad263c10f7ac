// Exact wire encoding for every RDP message (round-trip tested).
//
// The simulator moves messages by reference; this codec is what a
// socket-based deployment of the same protocol engines would put on the
// wire.  Format: one type-tag byte, then the members the message's fields()
// lists (core/messages.h), in that order: little-endian integers, one-byte
// bools and kinds, length-prefixed strings, a u32 count before a vector's
// elements, and an arqData frame's inner message as a nested encoding.
#pragma once

#include <cstdint>
#include <vector>

#include "core/messages.h"
#include "net/codec.h"

namespace rdp::core {

enum class MessageTag : std::uint8_t {
  kJoin = 1,
  kLeave = 2,
  kGreet = 3,
  kUplinkRequest = 4,
  kUnsubscribe = 5,
  kUplinkAck = 6,
  kRegistrationAck = 7,
  kDownlinkResult = 8,
  kForwardRequest = 9,
  kForwardUnsubscribe = 10,
  kServerRequest = 11,
  kServerUnsubscribe = 12,
  kServerResult = 13,
  kServerAck = 14,
  kResultForward = 15,
  kDelPref = 16,
  kAckForward = 17,
  kDereg = 18,
  kDeregAck = 19,
  kUpdateCurrentLoc = 20,
  kProxyGone = 21,
  kPrefRestore = 22,
  // Primary/backup replication (src/replication).
  kReplicaUpdate = 23,
  kReplicaErase = 24,
  kReplicaHeartbeat = 25,
  kReplicaResync = 26,
  kPrefRepair = 27,
  kPrefRepairNack = 28,
  kTransferResume = 29,
  // Uplink ARQ (src/arq).
  kArqData = 30,
  kArqAck = 31,
  // Dynamic membership + k-chain replication (src/replication).
  kChainAck = 32,
  kReplicaFence = 33,
  kReplicaFenceAck = 34,
  kMembershipEvent = 35,
  kMembershipReport = 36,
  kMembershipProbe = 37,
  kPrimaryFence = 38,
};

// True when `message`'s type has a MessageTag, i.e. is a core message.
[[nodiscard]] bool is_core_message(const net::MessageBase& message);

// Encodes any core message.  Throws common::InvariantViolation for message
// types outside the core protocol (e.g. baseline messages).
[[nodiscard]] std::vector<std::uint8_t> encode(const net::MessageBase& message);

// Decodes a buffer produced by encode().  Throws net::CodecError on
// malformed or truncated input.
[[nodiscard]] net::PayloadPtr decode(const std::vector<std::uint8_t>& buffer);

}  // namespace rdp::core
