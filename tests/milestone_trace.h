// Compact milestone trace for assertions.
//
// Renders the observer stream as short strings ("proxy_created@Node0",
// "forward:Req(Mh0#1)#1->Node2+delpref", ...) that tests match by prefix.
// Keep the phrasings stable — protocol tests assert on them byte for byte.
#pragma once

#include <string>
#include <vector>

#include "core/events.h"

namespace rdp::testutil {

class MilestoneTrace final : public core::RdpObserver {
 public:
  std::vector<std::string> trace;

  [[nodiscard]] bool contains(const std::string& prefix) const {
    return index_of(prefix) >= 0;
  }
  // Index of the first entry starting with `prefix`, or -1.
  [[nodiscard]] int index_of(const std::string& prefix) const {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i].rfind(prefix, 0) == 0) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return hook_bit(Hook::kProxyCreated) | hook_bit(Hook::kHandoffCompleted) |
           hook_bit(Hook::kUpdateCurrentloc) |
           hook_bit(Hook::kRequestReachedProxy) |
           hook_bit(Hook::kResultForwarded) |
           hook_bit(Hook::kResultDelivered) | hook_bit(Hook::kAckForwarded) |
           hook_bit(Hook::kRequestCompleted) | hook_bit(Hook::kProxyDeleted) |
           hook_bit(Hook::kRequestLost) | hook_bit(Hook::kMssCrashed) |
           hook_bit(Hook::kProxyRestored);
  }
  void on_proxy_created(core::SimTime, core::MhId, core::NodeAddress host,
                        core::ProxyId) override {
    trace.push_back("proxy_created@" + host.str());
  }
  void on_handoff_completed(core::SimTime, core::MhId, core::MssId from,
                            core::MssId to, core::Duration,
                            std::size_t) override {
    trace.push_back("handoff:" + from.str() + "->" + to.str());
  }
  void on_update_currentloc(core::SimTime, core::MhId, core::NodeAddress,
                            core::NodeAddress new_loc) override {
    trace.push_back("update_currentLoc->" + new_loc.str());
  }
  void on_request_reached_proxy(core::SimTime, core::MhId, core::RequestId r,
                                core::NodeAddress) override {
    trace.push_back("request:" + r.str());
  }
  void on_result_forwarded(core::SimTime, core::MhId, core::RequestId r,
                           std::uint32_t, core::NodeAddress to,
                           std::uint32_t attempt, bool del_pref) override {
    trace.push_back("forward:" + r.str() + "#" + std::to_string(attempt) +
                    "->" + to.str() + (del_pref ? "+delpref" : ""));
  }
  void on_result_delivered(core::SimTime, core::MhId, core::RequestId r,
                           std::uint32_t, bool, bool duplicate,
                           std::uint32_t) override {
    trace.push_back((duplicate ? "delivered(dup):" : "delivered:") + r.str());
  }
  void on_ack_forwarded(core::SimTime, core::MhId, core::RequestId r,
                        std::uint32_t, bool del_proxy) override {
    trace.push_back("ack:" + r.str() + (del_proxy ? "+delproxy" : ""));
  }
  void on_request_completed(core::SimTime, core::MhId,
                            core::RequestId r) override {
    trace.push_back("completed:" + r.str());
  }
  void on_proxy_deleted(core::SimTime, core::MhId, core::NodeAddress,
                        core::ProxyId, bool via_gc) override {
    trace.push_back(via_gc ? "proxy_gc" : "proxy_deleted");
  }
  void on_request_lost(core::SimTime, core::MhId, core::RequestId r,
                       core::RequestLossReason) override {
    trace.push_back("lost:" + r.str());
  }
  void on_mss_crashed(core::SimTime, core::MssId mss, std::size_t,
                      std::size_t) override {
    trace.push_back("crash:" + mss.str());
  }
  void on_proxy_restored(core::SimTime, core::MhId, core::NodeAddress host,
                         core::ProxyId) override {
    trace.push_back("proxy_restored@" + host.str());
  }
};

}  // namespace rdp::testutil
