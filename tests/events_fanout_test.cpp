// Event record and ObserverList fan-out.
//
// One table holds one Event of every kind, each with distinct values in
// every field its typed hook carries.  The tests check that the table
// covers RdpObserver::kHookCount kinds, that ObserverList delivers each
// event only to the observers whose mask has its bit, in add() order, and
// that the default on_event hands every kind to its typed hook with every
// argument intact.  Adding a kind without extending the table, the name
// table or the decode fails here.
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/events.h"
#include "obs/event_names.h"

namespace rdp::core {
namespace {

SimTime at(int ms) { return SimTime::from_micros(ms * 1000); }

const MhId kMh(7);
const RequestId kRequest(kMh, 11);

// One event per kind, in Hook order.
const std::vector<Event> kEvents = {
    {.kind = Hook::kProxyCreated, .at = at(1), .mh = kMh, .id_a = 21,
     .id_b = 31},
    {.kind = Hook::kProxyDeleted, .at = at(2), .mh = kMh, .id_a = 22,
     .id_b = 32, .flag_a = true},
    {.kind = Hook::kRequestIssued, .at = at(3), .mh = kMh,
     .request = kRequest, .id_a = 23},
    {.kind = Hook::kRequestReachedProxy, .at = at(4), .mh = kMh,
     .request = kRequest, .id_a = 24},
    {.kind = Hook::kResultAtProxy, .at = at(5), .mh = kMh,
     .request = kRequest, .seq = 45},
    {.kind = Hook::kResultForwarded, .at = at(6), .mh = kMh,
     .request = kRequest, .id_a = 26, .seq = 46, .attempt = 56,
     .flag_a = true},
    {.kind = Hook::kResultDelivered, .at = at(7), .mh = kMh,
     .request = kRequest, .seq = 47, .attempt = 57, .flag_a = true},
    {.kind = Hook::kAckForwarded, .at = at(8), .mh = kMh,
     .request = kRequest, .seq = 48, .flag_a = true},
    {.kind = Hook::kRequestCompleted, .at = at(9), .mh = kMh,
     .request = kRequest},
    {.kind = Hook::kReissueExhausted, .at = at(10), .mh = kMh,
     .request = kRequest, .attempt = 60},
    {.kind = Hook::kRequestLost, .at = at(11), .mh = kMh,
     .request = kRequest, .reason = RequestLossReason::kMssCrashed},
    {.kind = Hook::kArqFrameSent, .at = at(12), .mh = kMh, .seq = 52,
     .attempt = 62, .epoch = 72, .count_a = 82, .count_b = 92},
    {.kind = Hook::kArqDelivered, .at = at(13), .mh = kMh, .seq = 53,
     .epoch = 73, .flag_a = true},
    {.kind = Hook::kHandoffStarted, .at = at(14), .mh = kMh, .id_a = 34,
     .id_b = 44},
    {.kind = Hook::kHandoffCompleted, .at = at(15), .mh = kMh, .id_a = 35,
     .id_b = 45, .count_a = 85, .duration = Duration::micros(1500)},
    {.kind = Hook::kUpdateCurrentloc, .at = at(16), .mh = kMh, .id_a = 36,
     .id_b = 46},
    {.kind = Hook::kMhRegistered, .at = at(17), .mh = kMh, .id_a = 37,
     .duration = Duration::micros(1700)},
    {.kind = Hook::kStaleAckDropped, .at = at(18), .mh = kMh,
     .request = kRequest},
    {.kind = Hook::kDelproxyWithPending, .at = at(19), .mh = kMh,
     .id_a = 39},
    {.kind = Hook::kOrphanedProxy, .at = at(20), .mh = kMh, .id_a = 40},
    {.kind = Hook::kMssCrashed, .at = at(21), .id_a = 41, .count_a = 91,
     .count_b = 101},
    {.kind = Hook::kMssRestarted, .at = at(22), .id_a = 42, .count_a = 92},
    {.kind = Hook::kProxyRestored, .at = at(23), .mh = kMh, .id_a = 43,
     .id_b = 53},
    {.kind = Hook::kRequestReissued, .at = at(24), .mh = kMh,
     .request = kRequest, .attempt = 74},
    {.kind = Hook::kBackupPromoted, .at = at(25), .id_a = 45, .id_b = 55,
     .count_a = 95},
    {.kind = Hook::kMssDeparted, .at = at(26), .id_a = 46, .epoch = 76},
    {.kind = Hook::kMssRejoined, .at = at(27), .id_a = 47, .epoch = 77},
    {.kind = Hook::kPrimaryDemoted, .at = at(28), .id_a = 48, .count_a = 98},
};

// A typed consumer: rebuilds each event from its typed hook's arguments
// and remembers which hook it arrived on.
class TypedRecorder final : public RdpObserver {
 public:
  std::vector<std::pair<std::string, Event>> got;

  void on_proxy_created(SimTime t, MhId mh, NodeAddress host,
                        ProxyId p) override {
    add("proxy_created", {.kind = Hook::kProxyCreated, .at = t, .mh = mh,
                          .id_a = host.value(), .id_b = p.value()});
  }
  void on_proxy_deleted(SimTime t, MhId mh, NodeAddress host, ProxyId p,
                        bool gc) override {
    add("proxy_deleted", {.kind = Hook::kProxyDeleted, .at = t, .mh = mh,
                          .id_a = host.value(), .id_b = p.value(),
                          .flag_a = gc});
  }
  void on_request_issued(SimTime t, MhId mh, RequestId r,
                         NodeAddress server) override {
    add("request_issued", {.kind = Hook::kRequestIssued, .at = t, .mh = mh,
                           .request = r, .id_a = server.value()});
  }
  void on_request_reached_proxy(SimTime t, MhId mh, RequestId r,
                                NodeAddress host) override {
    add("request_reached_proxy",
        {.kind = Hook::kRequestReachedProxy, .at = t, .mh = mh, .request = r,
         .id_a = host.value()});
  }
  void on_result_at_proxy(SimTime t, MhId mh, RequestId r,
                          std::uint32_t seq) override {
    add("result_at_proxy", {.kind = Hook::kResultAtProxy, .at = t, .mh = mh,
                            .request = r, .seq = seq});
  }
  void on_result_forwarded(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                           NodeAddress to, std::uint32_t attempt,
                           bool del_pref) override {
    add("result_forwarded",
        {.kind = Hook::kResultForwarded, .at = t, .mh = mh, .request = r,
         .id_a = to.value(), .seq = seq, .attempt = attempt,
         .flag_a = del_pref});
  }
  void on_result_delivered(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                           bool final, bool duplicate,
                           std::uint32_t attempt) override {
    add("result_delivered",
        {.kind = Hook::kResultDelivered, .at = t, .mh = mh, .request = r,
         .seq = seq, .attempt = attempt, .flag_a = final,
         .flag_b = duplicate});
  }
  void on_ack_forwarded(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                        bool del_proxy) override {
    add("ack_forwarded", {.kind = Hook::kAckForwarded, .at = t, .mh = mh,
                          .request = r, .seq = seq, .flag_a = del_proxy});
  }
  void on_request_completed(SimTime t, MhId mh, RequestId r) override {
    add("request_completed",
        {.kind = Hook::kRequestCompleted, .at = t, .mh = mh, .request = r});
  }
  void on_reissue_exhausted(SimTime t, MhId mh, RequestId r,
                            int attempts) override {
    add("reissue_exhausted",
        {.kind = Hook::kReissueExhausted, .at = t, .mh = mh, .request = r,
         .attempt = static_cast<std::uint32_t>(attempts)});
  }
  void on_request_lost(SimTime t, MhId mh, RequestId r,
                       RequestLossReason reason) override {
    add("request_lost", {.kind = Hook::kRequestLost, .at = t, .mh = mh,
                         .request = r, .reason = reason});
  }
  void on_arq_frame_sent(SimTime t, MhId mh, std::uint32_t epoch,
                         std::uint32_t seq, std::uint32_t attempt,
                         std::size_t in_flight,
                         std::size_t window_limit) override {
    add("arq_frame_sent",
        {.kind = Hook::kArqFrameSent, .at = t, .mh = mh, .seq = seq,
         .attempt = attempt, .epoch = epoch, .count_a = in_flight,
         .count_b = window_limit});
  }
  void on_arq_delivered(SimTime t, MhId mh, std::uint32_t epoch,
                        std::uint32_t seq, bool duplicate) override {
    add("arq_delivered", {.kind = Hook::kArqDelivered, .at = t, .mh = mh,
                          .seq = seq, .epoch = epoch, .flag_a = duplicate});
  }
  void on_handoff_started(SimTime t, MhId mh, MssId from, MssId to) override {
    add("handoff_started", {.kind = Hook::kHandoffStarted, .at = t, .mh = mh,
                            .id_a = from.value(), .id_b = to.value()});
  }
  void on_handoff_completed(SimTime t, MhId mh, MssId from, MssId to,
                            Duration latency, std::size_t bytes) override {
    add("handoff_completed",
        {.kind = Hook::kHandoffCompleted, .at = t, .mh = mh,
         .id_a = from.value(), .id_b = to.value(), .count_a = bytes,
         .duration = latency});
  }
  void on_update_currentloc(SimTime t, MhId mh, NodeAddress host,
                            NodeAddress loc) override {
    add("update_currentloc",
        {.kind = Hook::kUpdateCurrentloc, .at = t, .mh = mh,
         .id_a = host.value(), .id_b = loc.value()});
  }
  void on_mh_registered(SimTime t, MhId mh, MssId mss, Duration d) override {
    add("mh_registered", {.kind = Hook::kMhRegistered, .at = t, .mh = mh,
                          .id_a = mss.value(), .duration = d});
  }
  void on_stale_ack_dropped(SimTime t, MhId mh, RequestId r) override {
    add("stale_ack_dropped",
        {.kind = Hook::kStaleAckDropped, .at = t, .mh = mh, .request = r});
  }
  void on_delproxy_with_pending(SimTime t, MhId mh, ProxyId p) override {
    add("delproxy_with_pending", {.kind = Hook::kDelproxyWithPending,
                                  .at = t, .mh = mh, .id_a = p.value()});
  }
  void on_orphaned_proxy(SimTime t, MhId mh, ProxyId p) override {
    add("orphaned_proxy", {.kind = Hook::kOrphanedProxy, .at = t, .mh = mh,
                           .id_a = p.value()});
  }
  void on_mss_crashed(SimTime t, MssId mss, std::size_t proxies,
                      std::size_t mhs) override {
    add("mss_crashed", {.kind = Hook::kMssCrashed, .at = t,
                        .id_a = mss.value(), .count_a = proxies,
                        .count_b = mhs});
  }
  void on_mss_restarted(SimTime t, MssId mss, std::size_t restored) override {
    add("mss_restarted", {.kind = Hook::kMssRestarted, .at = t,
                          .id_a = mss.value(), .count_a = restored});
  }
  void on_proxy_restored(SimTime t, MhId mh, NodeAddress host,
                         ProxyId p) override {
    add("proxy_restored", {.kind = Hook::kProxyRestored, .at = t, .mh = mh,
                           .id_a = host.value(), .id_b = p.value()});
  }
  void on_request_reissued(SimTime t, MhId mh, RequestId r,
                           int attempt) override {
    add("request_reissued",
        {.kind = Hook::kRequestReissued, .at = t, .mh = mh, .request = r,
         .attempt = static_cast<std::uint32_t>(attempt)});
  }
  void on_backup_promoted(SimTime t, MssId primary, MssId backup,
                          std::size_t adopted) override {
    add("backup_promoted", {.kind = Hook::kBackupPromoted, .at = t,
                            .id_a = primary.value(), .id_b = backup.value(),
                            .count_a = adopted});
  }
  void on_mss_departed(SimTime t, MssId mss, std::uint64_t epoch) override {
    add("mss_departed", {.kind = Hook::kMssDeparted, .at = t,
                         .id_a = mss.value(), .epoch = epoch});
  }
  void on_mss_rejoined(SimTime t, MssId mss, std::uint64_t epoch) override {
    add("mss_rejoined", {.kind = Hook::kMssRejoined, .at = t,
                         .id_a = mss.value(), .epoch = epoch});
  }
  void on_primary_demoted(SimTime t, MssId mss, std::size_t dropped) override {
    add("primary_demoted", {.kind = Hook::kPrimaryDemoted, .at = t,
                            .id_a = mss.value(), .count_a = dropped});
  }

 private:
  void add(const char* name, const Event& event) {
    got.emplace_back(name, event);
  }
};

// A raw consumer with a chosen mask, logging (name, kind) to a shared log.
class RawRecorder final : public RdpObserver {
 public:
  RawRecorder(std::string name, std::uint32_t mask,
              std::vector<std::pair<std::string, Hook>>& log)
      : name_(std::move(name)), mask_(mask), log_(log) {}

  [[nodiscard]] std::uint32_t hook_mask() const override { return mask_; }
  void on_event(const Event& event) override {
    log_.emplace_back(name_, event.kind);
  }

 private:
  std::string name_;
  std::uint32_t mask_;
  std::vector<std::pair<std::string, Hook>>& log_;
};

TEST(ObserverFanout, DriverCoversEveryHook) {
  ASSERT_EQ(kEvents.size(),
            static_cast<std::size_t>(RdpObserver::kHookCount));
  for (std::size_t i = 0; i < kEvents.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kEvents[i].kind), i)
        << "table row " << i << " is out of Hook order";
  }
}

// Every kind fans out to exactly the observers that subscribed to it, in
// add() order; a nested list flattens to its union mask.
TEST(ObserverFanout, ListForwardsEveryHookToAllObservers) {
  std::vector<std::pair<std::string, Hook>> log;
  std::uint32_t even = 0;
  for (int h = 0; h < RdpObserver::kHookCount; h += 2) even |= 1u << h;
  RawRecorder all("all", RdpObserver::kAllHooks, log);
  RawRecorder evens("evens", even, log);
  RawRecorder lost("lost", hook_bit(Hook::kRequestLost), log);
  RawRecorder none("none", 0, log);
  ObserverList inner;
  inner.add(&lost);
  ObserverList list;
  list.add(&evens);
  list.add(&inner);
  list.add(&none);
  list.add(&all);
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(list.hook_mask(), RdpObserver::kAllHooks);

  for (const Event& event : kEvents) list.on_event(event);

  std::vector<std::pair<std::string, Hook>> expected;
  for (const Event& event : kEvents) {
    if (static_cast<int>(event.kind) % 2 == 0) {
      expected.emplace_back("evens", event.kind);
    }
    if (event.kind == Hook::kRequestLost) {
      expected.emplace_back("lost", event.kind);
    }
    expected.emplace_back("all", event.kind);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(list.subscribers(Hook::kRequestLost).size(), 3u);
  EXPECT_EQ(list.subscribers(Hook::kRequestIssued).size(), 2u);
}

// The default on_event decodes every kind into its typed hook, each
// argument in its place.
TEST(ObserverFanout, DefaultOnEventDecodesEveryKindIntact) {
  TypedRecorder recorder;
  for (const Event& event : kEvents) recorder.on_event(event);
  ASSERT_EQ(recorder.got.size(), kEvents.size());
  for (std::size_t i = 0; i < kEvents.size(); ++i) {
    EXPECT_TRUE(recorder.got[i].second == kEvents[i])
        << recorder.got[i].first << " lost or moved an argument";
  }
}

// The obs::kHookNames table (already pinned to kHookCount by its
// static_assert) must agree with the typed hooks name for name: each
// kind's name is the name of the typed hook it decodes into, and all
// entries are distinct.  This catches the rename/reorder drift the count
// alone cannot.
TEST(ObserverFanout, HookNameTableMatchesHooks) {
  TypedRecorder recorder;
  for (const Event& event : kEvents) recorder.on_event(event);
  ASSERT_EQ(recorder.got.size(), kEvents.size());
  for (const auto& [name, event] : recorder.got) {
    EXPECT_EQ(name, obs::hook_name(static_cast<std::size_t>(event.kind)));
  }
  const std::set<std::string> named(std::begin(obs::kHookNames),
                                    std::end(obs::kHookNames));
  EXPECT_EQ(named.size(), std::size(obs::kHookNames)) << "duplicate names";
  EXPECT_STREQ(obs::hook_name(0), "proxy_created");
  EXPECT_STREQ(obs::hook_name(std::size(obs::kHookNames)), "?");
}

// An empty list is a valid no-op sink.
TEST(ObserverFanout, EmptyListIsSafe) {
  ObserverList list;
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.hook_mask(), 0u);
  for (const Event& event : kEvents) list.on_event(event);  // must not crash
}

}  // namespace
}  // namespace rdp::core
