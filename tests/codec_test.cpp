// Wire-codec tests: primitive round trips, exhaustive per-message round
// trips, and malformed-input robustness (truncation, bad tags, trailing
// bytes must throw CodecError, never crash or mis-decode).
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/messages.h"
#include "common/check.h"
#include "core/codec.h"
#include "net/codec.h"
#include "tis/messages.h"

namespace rdp {
namespace {

using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;

TEST(Codec, PrimitiveRoundTrip) {
  net::Writer writer;
  writer.u8(7);
  writer.u16(65000);
  writer.u32(4'000'000'000u);
  writer.u64(0x1122334455667788ull);
  writer.i32(-42);
  writer.i64(-1'000'000'000'000ll);
  writer.boolean(true);
  writer.boolean(false);
  writer.str("hello");
  writer.str("");

  net::Reader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u16(), 65000);
  EXPECT_EQ(reader.u32(), 4'000'000'000u);
  EXPECT_EQ(reader.u64(), 0x1122334455667788ull);
  EXPECT_EQ(reader.i32(), -42);
  EXPECT_EQ(reader.i64(), -1'000'000'000'000ll);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.done());
}

TEST(Codec, ReaderUnderflowThrows) {
  net::Writer writer;
  writer.u16(5);
  net::Reader reader(writer.bytes());
  EXPECT_THROW(reader.u32(), net::CodecError);
}

TEST(Codec, StringLengthBeyondBufferThrows) {
  net::Writer writer;
  writer.u32(1000);  // claims 1000 bytes follow; none do
  net::Reader reader(writer.bytes());
  EXPECT_THROW(reader.str(), net::CodecError);
}

// --- per-message round trips ------------------------------------------------

template <typename T>
const T* round_trip(const T& message) {
  static net::PayloadPtr keep_alive;  // extends lifetime for the returned ptr
  keep_alive = core::decode(core::encode(message));
  const T* decoded = net::message_cast<T>(keep_alive);
  EXPECT_NE(decoded, nullptr);
  return decoded;
}

TEST(CoreCodec, JoinLeave) {
  EXPECT_NE(round_trip(core::MsgJoin{}), nullptr);
  EXPECT_NE(round_trip(core::MsgLeave{}), nullptr);
}

TEST(CoreCodec, Greet) {
  const auto* decoded = round_trip(core::MsgGreet(MssId(9)));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->old_mss, MssId(9));
}

TEST(CoreCodec, UplinkRequest) {
  const core::MsgUplinkRequest original(RequestId(MhId(3), 17),
                                        NodeAddress(4), "body with spaces",
                                        true);
  const auto* decoded = round_trip(original);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->request, original.request);
  EXPECT_EQ(decoded->server, original.server);
  EXPECT_EQ(decoded->body, original.body);
  EXPECT_EQ(decoded->stream, original.stream);
}

TEST(CoreCodec, UplinkAckAndUnsubscribe) {
  const auto* ack = round_trip(core::MsgUplinkAck(RequestId(MhId(1), 2), 5));
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->result_seq, 5u);
  const auto* unsub =
      round_trip(core::MsgUnsubscribe(RequestId(MhId(1), 2)));
  ASSERT_NE(unsub, nullptr);
  EXPECT_EQ(unsub->request, RequestId(MhId(1), 2));
}

TEST(CoreCodec, DownlinkResult) {
  const core::MsgDownlinkResult original(RequestId(MhId(8), 1), 3, true,
                                         std::string(1000, 'x'), 7);
  const auto* decoded = round_trip(original);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->result_seq, 3u);
  EXPECT_TRUE(decoded->final);
  EXPECT_EQ(decoded->body.size(), 1000u);
  EXPECT_EQ(decoded->attempt, 7u);
}

TEST(CoreCodec, ForwardRequestAndServerPath) {
  const core::MsgForwardRequest fwd(MhId(2), ProxyId(5),
                                    RequestId(MhId(2), 9), NodeAddress(6),
                                    "q", false);
  const auto* decoded_fwd = round_trip(fwd);
  ASSERT_NE(decoded_fwd, nullptr);
  EXPECT_EQ(decoded_fwd->proxy, ProxyId(5));

  const core::MsgServerRequest sreq(NodeAddress(1), ProxyId(5),
                                    RequestId(MhId(2), 9), "q", true);
  const auto* decoded_sreq = round_trip(sreq);
  ASSERT_NE(decoded_sreq, nullptr);
  EXPECT_EQ(decoded_sreq->reply_to, NodeAddress(1));
  EXPECT_TRUE(decoded_sreq->stream);

  const core::MsgServerResult sres(ProxyId(5), RequestId(MhId(2), 9), 4,
                                   false, "partial");
  const auto* decoded_sres = round_trip(sres);
  ASSERT_NE(decoded_sres, nullptr);
  EXPECT_EQ(decoded_sres->result_seq, 4u);
  EXPECT_FALSE(decoded_sres->final);
}

TEST(CoreCodec, ResultForwardAllFlags) {
  const core::MsgResultForward original(MhId(1), NodeAddress(2), ProxyId(3),
                                        RequestId(MhId(1), 4), 5, true, true,
                                        "payload", 6);
  const auto* decoded = round_trip(original);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->proxy_host, NodeAddress(2));
  EXPECT_TRUE(decoded->final);
  EXPECT_TRUE(decoded->del_pref);
  EXPECT_EQ(decoded->attempt, 6u);
}

TEST(CoreCodec, HandoffMessagesPreservePref) {
  core::Pref pref;
  pref.proxy_host = NodeAddress(3);
  pref.proxy = ProxyId(12);
  pref.rkpr = true;
  pref.rkpr_request = RequestId(MhId(4), 8);
  pref.rkpr_seq = 2;
  const auto* decoded = round_trip(core::MsgDeregAck(MhId(4), pref));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->pref.proxy_host, NodeAddress(3));
  EXPECT_EQ(decoded->pref.proxy, ProxyId(12));
  EXPECT_TRUE(decoded->pref.rkpr);
  EXPECT_EQ(decoded->pref.rkpr_request, RequestId(MhId(4), 8));
  EXPECT_EQ(decoded->pref.rkpr_seq, 2u);

  // A null pref survives too (invalid ids round-trip by value).
  core::Pref null_pref;
  null_pref.clear();
  const auto* decoded_null = round_trip(core::MsgDeregAck(MhId(4), null_pref));
  ASSERT_NE(decoded_null, nullptr);
  EXPECT_FALSE(decoded_null->pref.has_proxy());

  const auto* dereg = round_trip(core::MsgDereg(MhId(4), MssId(1)));
  ASSERT_NE(dereg, nullptr);
  EXPECT_EQ(dereg->new_mss, MssId(1));
}

TEST(CoreCodec, ControlMessages) {
  const auto* ack = round_trip(core::MsgAckForward(
      MhId(1), ProxyId(2), RequestId(MhId(1), 3), 4, true));
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->del_proxy);

  const auto* del_pref = round_trip(core::MsgDelPref(
      MhId(1), NodeAddress(2), ProxyId(3), RequestId(MhId(1), 4), 5));
  ASSERT_NE(del_pref, nullptr);
  EXPECT_EQ(del_pref->result_seq, 5u);

  const auto* update = round_trip(
      core::MsgUpdateCurrentLoc(MhId(1), ProxyId(2), NodeAddress(3)));
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->new_loc, NodeAddress(3));

  const auto* restore =
      round_trip(core::MsgPrefRestore(MhId(1), NodeAddress(2), ProxyId(3)));
  ASSERT_NE(restore, nullptr);
  EXPECT_EQ(restore->proxy, ProxyId(3));

  const auto* gone = round_trip(core::MsgProxyGone(
      MhId(1), ProxyId(2), RequestId(MhId(1), 3), NodeAddress(4), "b", true,
      false));
  ASSERT_NE(gone, nullptr);
  EXPECT_TRUE(gone->stream);
  EXPECT_FALSE(gone->had_request);
}

TEST(CoreCodec, ArqDataNestsInnerMessage) {
  const core::MsgArqData original(
      5, 9, 2,
      net::make_message<core::MsgUplinkRequest>(RequestId(MhId(3), 17),
                                                NodeAddress(4), "query",
                                                true));
  const auto* decoded = round_trip(original);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->epoch, 5u);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->attempt, 2u);
  const auto* inner = net::message_cast<core::MsgUplinkRequest>(decoded->inner);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->request, RequestId(MhId(3), 17));
  EXPECT_EQ(inner->server, NodeAddress(4));
  EXPECT_EQ(inner->body, "query");
  EXPECT_TRUE(inner->stream);
  // On top of the inner frame: the frame header, the tag and the 12-byte
  // ARQ header; unwrap() reaches through to the application message for
  // taps.
  EXPECT_EQ(decoded->wire_size(), 4 + 1 + 12 + inner->wire_size());
  EXPECT_STREQ(decoded->unwrap().name(), "request");
}

TEST(CoreCodec, ArqAck) {
  const auto* decoded =
      round_trip(core::MsgArqAck(3, 41, 0xdeadbeefcafef00dull));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->cum_next, 41u);
  EXPECT_EQ(decoded->sack, 0xdeadbeefcafef00dull);
}

TEST(CoreCodec, ReplicationMessages) {
  core::ProxyCheckpoint record;
  record.proxy = ProxyId(7);
  record.mh = MhId(3);
  record.current_loc = NodeAddress(11);
  core::ProxyCheckpoint::Request request;
  request.request = RequestId(MhId(3), 4);
  request.server = NodeAddress(2);
  request.body = "query body";
  request.stream = true;
  request.del_pref_announced = true;
  request.unacked.push_back({5, false, "partial result", 2});
  request.unacked.push_back({6, true, "final result", 1});
  record.requests.push_back(request);

  const auto* update =
      round_trip(core::MsgReplicaUpdate(MssId(1), 42, record));
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->primary, MssId(1));
  EXPECT_EQ(update->seq, 42u);
  EXPECT_EQ(update->record.proxy, ProxyId(7));
  EXPECT_EQ(update->record.mh, MhId(3));
  EXPECT_EQ(update->record.current_loc, NodeAddress(11));
  ASSERT_EQ(update->record.requests.size(), 1u);
  const auto& req = update->record.requests[0];
  EXPECT_EQ(req.request, RequestId(MhId(3), 4));
  EXPECT_EQ(req.server, NodeAddress(2));
  EXPECT_EQ(req.body, "query body");
  EXPECT_TRUE(req.stream);
  EXPECT_TRUE(req.del_pref_announced);
  ASSERT_EQ(req.unacked.size(), 2u);
  EXPECT_EQ(req.unacked[0].seq, 5u);
  EXPECT_FALSE(req.unacked[0].final);
  EXPECT_EQ(req.unacked[0].body, "partial result");
  EXPECT_EQ(req.unacked[0].attempts, 2u);
  EXPECT_EQ(req.unacked[1].seq, 6u);
  EXPECT_TRUE(req.unacked[1].final);

  const auto* erase = round_trip(core::MsgReplicaErase(MssId(2), 7, ProxyId(9)));
  ASSERT_NE(erase, nullptr);
  EXPECT_EQ(erase->primary, MssId(2));
  EXPECT_EQ(erase->seq, 7u);
  EXPECT_EQ(erase->proxy, ProxyId(9));

  const auto* heartbeat = round_trip(core::MsgReplicaHeartbeat(MssId(3)));
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->primary, MssId(3));

  const auto* resync = round_trip(core::MsgReplicaResync(MssId(1)));
  ASSERT_NE(resync, nullptr);
  EXPECT_EQ(resync->backup, MssId(1));

  const auto* repair = round_trip(core::MsgPrefRepair(
      MhId(5), NodeAddress(1), ProxyId(2), NodeAddress(3), ProxyId(4)));
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->mh, MhId(5));
  EXPECT_EQ(repair->old_host, NodeAddress(1));
  EXPECT_EQ(repair->old_proxy, ProxyId(2));
  EXPECT_EQ(repair->new_host, NodeAddress(3));
  EXPECT_EQ(repair->new_proxy, ProxyId(4));

  const auto* nack = round_trip(core::MsgPrefRepairNack(MhId(5), ProxyId(4)));
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->mh, MhId(5));
  EXPECT_EQ(nack->new_proxy, ProxyId(4));

  // The greet path sends an invalid old_proxy (resolve-by-mh); it must
  // survive the wire.
  const auto* resume = round_trip(core::MsgTransferResume(
      MhId(6), NodeAddress(2), ProxyId::invalid()));
  ASSERT_NE(resume, nullptr);
  EXPECT_EQ(resume->mh, MhId(6));
  EXPECT_EQ(resume->old_host, NodeAddress(2));
  EXPECT_FALSE(resume->old_proxy.valid());
}

TEST(CoreCodec, ChainAndFenceMessages) {
  const auto* ack = round_trip(core::MsgChainAck(MssId(1), 99, MssId(3)));
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->primary, MssId(1));
  EXPECT_EQ(ack->seq, 99u);
  EXPECT_EQ(ack->member, MssId(3));

  const auto* begin =
      round_trip(core::MsgReplicaFence(MssId(2), 5, 17, false));
  ASSERT_NE(begin, nullptr);
  EXPECT_EQ(begin->primary, MssId(2));
  EXPECT_EQ(begin->epoch, 5u);
  EXPECT_EQ(begin->fence_seq, 17u);
  EXPECT_FALSE(begin->commit);

  const auto* commit = round_trip(core::MsgReplicaFence(MssId(2), 5, 17, true));
  ASSERT_NE(commit, nullptr);
  EXPECT_TRUE(commit->commit);

  const auto* fence_ack =
      round_trip(core::MsgReplicaFenceAck(MssId(2), 5, MssId(0)));
  ASSERT_NE(fence_ack, nullptr);
  EXPECT_EQ(fence_ack->primary, MssId(2));
  EXPECT_EQ(fence_ack->epoch, 5u);
  EXPECT_EQ(fence_ack->member, MssId(0));

  const auto* fence = round_trip(core::MsgPrimaryFence(MssId(4), 6));
  ASSERT_NE(fence, nullptr);
  EXPECT_EQ(fence->primary, MssId(4));
  EXPECT_EQ(fence->epoch, 6u);
}

TEST(CoreCodec, MembershipMessages) {
  const auto* event = round_trip(core::MsgMembershipEvent(
      MssId(2), NodeAddress(7), core::MembershipEventKind::kDeparted, 3));
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->subject, MssId(2));
  EXPECT_EQ(event->subject_address, NodeAddress(7));
  EXPECT_EQ(event->kind, core::MembershipEventKind::kDeparted);
  EXPECT_EQ(event->epoch, 3u);

  const auto* report = round_trip(core::MsgMembershipReport(
      MssId(1), MssId(2), core::MembershipReportKind::kSuspect));
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->reporter, MssId(1));
  EXPECT_EQ(report->subject, MssId(2));
  EXPECT_EQ(report->kind, core::MembershipReportKind::kSuspect);

  const auto* probe = round_trip(core::MsgMembershipProbe(MssId(5)));
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->subject, MssId(5));
}

// An out-of-range kind byte must be rejected in the decoder, not become an
// enum value no switch covers.
TEST(CoreCodec, HostileMembershipKindThrows) {
  std::vector<std::uint8_t> event = core::encode(core::MsgMembershipEvent(
      MssId(2), NodeAddress(7), core::MembershipEventKind::kAlive, 3));
  event[9] = 0x7F;  // tag(1) + subject(4) + address(4) = kind at offset 9
  EXPECT_THROW((void)core::decode(event), net::CodecError);

  std::vector<std::uint8_t> report = core::encode(core::MsgMembershipReport(
      MssId(1), MssId(2), core::MembershipReportKind::kAlive));
  report[9] = 0x7F;  // tag(1) + reporter(4) + subject(4) = offset 9
  EXPECT_THROW((void)core::decode(report), net::CodecError);
}

// A checkpoint's size is the *real* encoded size, not an estimate: it must
// equal the encoder's byte count for a checkpoint-carrying update exactly
// (modulo the update's own fixed header).
TEST(CoreCodec, CheckpointWireSizeMatchesEncoding) {
  core::ProxyCheckpoint record;
  record.proxy = ProxyId(1);
  record.mh = MhId(2);
  record.current_loc = NodeAddress(3);
  for (int i = 0; i < 3; ++i) {
    core::ProxyCheckpoint::Request request;
    request.request = RequestId(MhId(2), static_cast<std::uint32_t>(i));
    request.server = NodeAddress(4);
    request.body = std::string(static_cast<std::size_t>(10 * i), 'b');
    request.stream = (i % 2) == 0;
    for (int j = 0; j <= i; ++j) {
      request.unacked.push_back({static_cast<std::uint32_t>(j), j == i,
                                 std::string(static_cast<std::size_t>(7 * j), 'r'),
                                 1});
    }
    record.requests.push_back(std::move(request));
  }

  const core::MsgReplicaUpdate update(MssId(0), 1, record);
  const std::vector<std::uint8_t> encoded = core::encode(update);
  // encode() emits 1 tag byte + primary (u32) + seq (u64) + the record.
  EXPECT_EQ(net::encoded_size(record), encoded.size() - 1 - 4 - 8);

  // An empty record also matches (no per-request terms).
  core::ProxyCheckpoint empty;
  empty.proxy = ProxyId(1);
  empty.mh = MhId(2);
  empty.current_loc = NodeAddress(3);
  const std::vector<std::uint8_t> empty_encoded =
      core::encode(core::MsgReplicaUpdate(MssId(0), 2, empty));
  EXPECT_EQ(net::encoded_size(empty), empty_encoded.size() - 1 - 4 - 8);
}

// --- robustness ----------------------------------------------------------------

TEST(CoreCodec, TruncatedBuffersThrowEverywhere) {
  const core::MsgResultForward original(MhId(1), NodeAddress(2), ProxyId(3),
                                        RequestId(MhId(1), 4), 5, true, false,
                                        "payload", 6);
  const std::vector<std::uint8_t> full = core::encode(original);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> truncated(full.begin(), full.begin() + cut);
    EXPECT_THROW((void)core::decode(truncated), net::CodecError)
        << "cut at " << cut;
  }
}

TEST(CoreCodec, TrailingBytesThrow) {
  std::vector<std::uint8_t> buffer = core::encode(core::MsgJoin{});
  buffer.push_back(0xFF);
  EXPECT_THROW((void)core::decode(buffer), net::CodecError);
}

TEST(CoreCodec, UnknownTagThrows) {
  std::vector<std::uint8_t> buffer{0xEE};
  EXPECT_THROW((void)core::decode(buffer), net::CodecError);
}

TEST(CoreCodec, EmptyBufferThrows) {
  EXPECT_THROW((void)core::decode({}), net::CodecError);
}

TEST(CoreCodec, NonCoreMessageRejectedByEncode) {
  struct Alien final : net::Message<Alien> {
    auto fields() const { return std::tie(); }
    const char* name() const override { return "alien"; }
  };
  EXPECT_THROW((void)core::encode(Alien{}), common::InvariantViolation);
}

// One exemplar of every wire message (all 38 tags), with non-trivial field
// values so the robustness sweeps exercise every decoder branch.
std::vector<net::PayloadPtr> all_messages() {
  const RequestId req(MhId(3), 17);
  core::Pref pref;
  pref.proxy_host = NodeAddress(3);
  pref.proxy = ProxyId(12);
  pref.rkpr = true;
  pref.rkpr_request = req;
  pref.rkpr_seq = 2;
  core::ProxyCheckpoint record;
  record.proxy = ProxyId(7);
  record.mh = MhId(3);
  record.current_loc = NodeAddress(11);
  core::ProxyCheckpoint::Request ckpt_req;
  ckpt_req.request = req;
  ckpt_req.server = NodeAddress(2);
  ckpt_req.body = "query";
  ckpt_req.stream = true;
  ckpt_req.unacked.push_back({5, false, "partial", 2});
  record.requests.push_back(std::move(ckpt_req));

  std::vector<net::PayloadPtr> messages;
  const auto add = [&messages]<typename T>(T message) {
    messages.push_back(net::make_message<T>(std::move(message)));
  };
  add(core::MsgJoin{});
  add(core::MsgLeave{});
  add(core::MsgGreet(MssId(9)));
  add(core::MsgUplinkRequest(req, NodeAddress(4), "body", true));
  add(core::MsgUnsubscribe(req));
  add(core::MsgUplinkAck(req, 5));
  add(core::MsgRegistrationAck(MssId(2)));
  add(core::MsgDownlinkResult(req, 3, true, "result", 7));
  add(core::MsgForwardRequest(MhId(2), ProxyId(5), req, NodeAddress(6), "q",
                              false));
  add(core::MsgForwardUnsubscribe(MhId(2), ProxyId(5), req));
  add(core::MsgServerRequest(NodeAddress(1), ProxyId(5), req, "q", true));
  add(core::MsgServerUnsubscribe(ProxyId(5), req));
  add(core::MsgServerResult(ProxyId(5), req, 4, false, "partial"));
  add(core::MsgServerAck(req));
  add(core::MsgResultForward(MhId(1), NodeAddress(2), ProxyId(3), req, 5,
                             true, true, "payload", 6));
  add(core::MsgDelPref(MhId(1), NodeAddress(2), ProxyId(3), req, 5));
  add(core::MsgAckForward(MhId(1), ProxyId(2), req, 4, true));
  add(core::MsgDereg(MhId(4), MssId(1)));
  add(core::MsgDeregAck(MhId(4), pref));
  add(core::MsgUpdateCurrentLoc(MhId(1), ProxyId(2), NodeAddress(3)));
  add(core::MsgProxyGone(MhId(1), ProxyId(2), req, NodeAddress(4), "b", true,
                         false));
  add(core::MsgPrefRestore(MhId(1), NodeAddress(2), ProxyId(3)));
  add(core::MsgReplicaUpdate(MssId(1), 42, record));
  add(core::MsgReplicaErase(MssId(2), 7, ProxyId(9)));
  add(core::MsgReplicaHeartbeat(MssId(3)));
  add(core::MsgReplicaResync(MssId(1)));
  add(core::MsgPrefRepair(MhId(5), NodeAddress(1), ProxyId(2), NodeAddress(3),
                          ProxyId(4)));
  add(core::MsgPrefRepairNack(MhId(5), ProxyId(4)));
  add(core::MsgTransferResume(MhId(6), NodeAddress(2), ProxyId(7)));
  add(core::MsgArqData(
      5, 9, 2,
      net::make_message<core::MsgUplinkRequest>(req, NodeAddress(4), "query",
                                                true)));
  add(core::MsgArqAck(3, 41, 0xdeadbeefcafef00dull));
  add(core::MsgChainAck(MssId(1), 99, MssId(3)));
  add(core::MsgReplicaFence(MssId(2), 5, 17, false));
  add(core::MsgReplicaFenceAck(MssId(2), 5, MssId(0)));
  add(core::MsgMembershipEvent(MssId(2), NodeAddress(7),
                               core::MembershipEventKind::kDeparted, 3));
  add(core::MsgMembershipReport(MssId(1), MssId(2),
                                core::MembershipReportKind::kSuspect));
  add(core::MsgMembershipProbe(MssId(5)));
  add(core::MsgPrimaryFence(MssId(4), 6));
  EXPECT_EQ(messages.size(), 38u);  // every MessageTag represented
  return messages;
}

std::vector<std::vector<std::uint8_t>> all_message_exemplars() {
  std::vector<std::vector<std::uint8_t>> buffers;
  for (const net::PayloadPtr& message : all_messages()) {
    buffers.push_back(core::encode(*message));
  }
  return buffers;
}

// --- wire sizes ---------------------------------------------------------------

// Every size comes from the message's field layout: the 4-byte frame
// header plus exactly the bytes the codec encodes (tag and fields).
TEST(WireSize, CoreMessagesAreFrameHeaderPlusEncoding) {
  for (const net::PayloadPtr& message : all_messages()) {
    EXPECT_EQ(message->wire_size(), 4 + core::encode(*message).size())
        << message->name();
  }
}

// The Mobile-IP and TIS vocabularies have no codec tags (nothing decodes
// them) but are sized by the same rule: frame header, one tag byte, then
// the fields — ids and u32s 4 B, a request id 8 B, a u64 or i64 8 B, an
// i32 4 B, a string its u32 length and its bytes.
TEST(WireSize, MobileIpMessagesFollowTheirFieldLayout) {
  const RequestId req(MhId(3), 17);
  const NodeAddress node(2);
  EXPECT_EQ(baseline::MsgMipGreet(node).wire_size(), 4u + 1 + 4);
  EXPECT_EQ(baseline::MsgMipRequest(req, node, node, "query").wire_size(),
            4u + 1 + 8 + 4 + 4 + (4 + 5));
  EXPECT_EQ(baseline::MsgMipUplinkAck(req, node).wire_size(), 4u + 1 + 8 + 4);
  EXPECT_EQ(baseline::MsgMipRegistration(MhId(3), node).wire_size(),
            4u + 1 + 4 + 4);
  EXPECT_EQ(baseline::MsgMipRegReply(MhId(3)).wire_size(), 4u + 1 + 4);
  EXPECT_EQ(baseline::MsgMipTunnel(MhId(3), req, "result", 2).wire_size(),
            4u + 1 + 4 + 8 + (4 + 6) + 4);
  EXPECT_EQ(baseline::MsgMipAckForward(MhId(3), req).wire_size(),
            4u + 1 + 4 + 8);
}

TEST(WireSize, TisMessagesFollowTheirFieldLayout) {
  const RequestId req(MhId(3), 17);
  const NodeAddress node(2);
  const ProxyId proxy(5);
  EXPECT_EQ(tis::MsgTisGet(node, proxy, req, 7).wire_size(),
            4u + 1 + 4 + 4 + 8 + 4);
  EXPECT_EQ(tis::MsgTisSet(node, proxy, req, 7, -40).wire_size(),
            4u + 1 + 4 + 4 + 8 + 4 + 4);
  EXPECT_EQ(tis::MsgTisAreaPart(node, 99, 1, 8).wire_size(),
            4u + 1 + 4 + 8 + 4 + 4);
  EXPECT_EQ(tis::MsgTisAreaReply(99, -12345678901, 8).wire_size(),
            4u + 1 + 8 + 8 + 4);
  EXPECT_EQ(tis::MsgTisSub(node, proxy, req, 7, 30).wire_size(),
            4u + 1 + 4 + 4 + 8 + 4 + 4);
  EXPECT_EQ(tis::MsgTisUnsub(req).wire_size(), 4u + 1 + 8);
}

// Chop every encoded message at every byte boundary: each strict prefix
// must raise CodecError — never crash, never silently decode short.
TEST(CoreCodec, TruncationSweepAllMessages) {
  for (const std::vector<std::uint8_t>& full : all_message_exemplars()) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(full.begin(),
                                             full.begin() + cut);
      EXPECT_THROW((void)core::decode(prefix), net::CodecError)
          << "tag " << (full.empty() ? 0 : full[0]) << " cut at " << cut;
    }
  }
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

// The exact bytes of every exemplar.  Round trips cannot see a field
// reorder applied to encode and decode alike; this table can.  A change
// here is a wire-format change.
TEST(CoreCodec, GoldenBytesAllMessages) {
  static const char* const kGolden[] = {
      "01",  // join
      "02",  // leave
      "0309000000",  // greet
      "0403000000110000000400000004000000626f647901",  // request
      "050300000011000000",  // unsubscribe
      "06030000001100000005000000",  // ack
      "0702000000",  // registrationAck
      "080300000011000000030000000106000000726573756c7407000000",  // result
      // forwardRequest
      "090200000005000000030000001100000006000000010000007100",
      "0a02000000050000000300000011000000",  // forwardUnsubscribe
      "0b01000000050000000300000011000000010000007101",  // serverRequest
      "0c050000000300000011000000",  // serverUnsubscribe
      // serverResult
      "0d0500000003000000110000000400000000070000007061727469616c",
      "0e0300000011000000",  // serverAck
      // resultForward
      "0f01000000020000000300000003000000110000000500000001010700000070"
      "61796c6f616406000000",
      "10010000000200000003000000030000001100000005000000",  // delPref
      "11010000000200000003000000110000000400000001",  // ackForward
      "120400000001000000",  // dereg
      "1304000000030000000c00000001030000001100000002000000",  // deregAck
      "14010000000200000003000000",  // update_currentLoc
      "15010000000200000003000000110000000400000001000000620100",  // proxyGone
      "16010000000200000003000000",  // prefRestore
      // replicaUpdate
      "17010000002a0000000000000007000000030000000b00000001000000030000"
      "0011000000020000000500000071756572790100010000000500000000070000"
      "007061727469616c02000000",
      "1802000000070000000000000009000000",  // replicaErase
      "1903000000",  // replicaHeartbeat
      "1a01000000",  // replicaResync
      "1b0500000001000000020000000300000004000000",  // prefRepair
      "1c0500000004000000",  // prefRepairNack
      "1d060000000200000007000000",  // transferResume
      // arqData
      "1e05000000090000000200000017000000040300000011000000040000000500"
      "0000717565727901",
      "1f03000000290000000df0fecaefbeadde",  // arqAck
      "2001000000630000000000000003000000",  // chainAck
      "21020000000500000000000000110000000000000000",  // replicaFence
      "2202000000050000000000000000000000",  // replicaFenceAck
      "230200000007000000010300000000000000",  // membershipEvent
      "24010000000200000000",  // membershipReport
      "2505000000",  // membershipProbe
      "26040000000600000000000000",  // primaryFence
  };
  const std::vector<std::vector<std::uint8_t>> buffers =
      all_message_exemplars();
  ASSERT_EQ(buffers.size(), std::size(kGolden));
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ(to_hex(buffers[i]), kGolden[i])
        << "tag " << static_cast<int>(buffers[i][0]);
  }
}

// Flip every byte of every encoded message through a handful of values.
// A corrupt buffer may still decode (many field mutations are legal) but
// must either decode or throw CodecError — nothing else, and no UB, which
// the ASan/UBSan CI job checks for real.
TEST(CoreCodec, CorruptionSweepAllMessages) {
  const std::uint8_t patches[] = {0x00, 0x01, 0x7F, 0xFF};
  for (const std::vector<std::uint8_t>& full : all_message_exemplars()) {
    for (std::size_t pos = 0; pos < full.size(); ++pos) {
      for (const std::uint8_t patch : patches) {
        std::vector<std::uint8_t> corrupt = full;
        corrupt[pos] ^= patch;
        if (corrupt[pos] == full[pos]) continue;
        try {
          (void)core::decode(corrupt);
        } catch (const net::CodecError&) {
          // fine: detected as malformed
        }
      }
    }
  }
}

// A corrupt checkpoint count must not become a giant allocation: a buffer
// claiming 2^32-1 requests has to die in the bounds check, not bad_alloc.
TEST(CoreCodec, HugeCheckpointCountRejectedCheaply) {
  net::Writer writer;
  writer.u8(static_cast<std::uint8_t>(core::MessageTag::kReplicaUpdate));
  writer.u32(1);                     // primary
  writer.u64(42);                    // seq
  writer.u32(7);                     // record.proxy
  writer.u32(3);                     // record.mh
  writer.u32(11);                    // record.current_loc
  writer.u32(0xFFFFFFFFu);           // num_requests: lies
  EXPECT_THROW((void)core::decode(writer.bytes()), net::CodecError);
}

// Hand-rolled ArqData-in-ArqData beyond the nesting cap: the sender never
// produces it, so the decoder must reject it instead of recursing until
// the stack runs out.
TEST(CoreCodec, DeeplyNestedArqDataRejected) {
  std::vector<std::uint8_t> inner = core::encode(core::MsgJoin{});
  for (int depth = 0; depth < 8; ++depth) {
    net::Writer writer;
    writer.u8(static_cast<std::uint8_t>(core::MessageTag::kArqData));
    writer.u32(1);  // epoch
    writer.u32(0);  // seq
    writer.u32(1);  // attempt
    writer.str(std::string(inner.begin(), inner.end()));
    inner = writer.bytes();
  }
  EXPECT_THROW((void)core::decode(inner), net::CodecError);

  // One legitimate level of wrapping still decodes.
  net::Writer one;
  one.u8(static_cast<std::uint8_t>(core::MessageTag::kArqData));
  one.u32(1);
  one.u32(0);
  one.u32(1);
  const std::vector<std::uint8_t> join = core::encode(core::MsgJoin{});
  one.str(std::string(join.begin(), join.end()));
  EXPECT_NE(core::decode(one.bytes()), nullptr);
}

}  // namespace
}  // namespace rdp
