// Simulated stable storage for proxy state (fault-tolerance extension).
//
// The paper assumes "Mss's do not fail" (§2) and defers fault tolerance to
// future work.  The fault-injection subsystem (src/fault) removes that
// assumption: an Mss crash drops every volatile proxy, which breaks the
// at-least-once guarantee for requests whose results lived only in the
// crashed host's memory.  The ProxyCheckpointStore restores the guarantee
// constructively: an Mss wired to a store writes a checkpoint of a proxy
// after every state change, and a restarted Mss re-creates its proxies from
// the durable records (Mss::restart).
//
// The store models a disk, not a network service: writes are asynchronous
// (durable `write_latency` after issue, so a crash can lose the latest
// delta) and reads return the durable snapshot instantly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace rdp::core {

// Serializable snapshot of one proxy: everything Proxy::handle_* mutates.
struct ProxyCheckpoint {
  struct Result {
    std::uint32_t seq = 0;
    bool final = false;
    std::string body;
    std::uint32_t attempts = 0;

    [[nodiscard]] auto fields() const {
      return std::tie(seq, final, body, attempts);
    }
  };
  struct Request {
    common::RequestId request;
    common::NodeAddress server;
    std::string body;  // original request body, for post-recovery re-query
    bool stream = false;
    bool del_pref_announced = false;
    std::vector<Result> unacked;

    [[nodiscard]] auto fields() const {
      return std::tie(request, server, body, stream, del_pref_announced,
                      unacked);
    }
  };

  common::ProxyId proxy;
  common::MhId mh;
  common::NodeAddress current_loc;
  std::vector<Request> requests;

  // Wire layout, as for the messages (core/messages.h): a vector travels as
  // a u32 count followed by its elements.  net::encoded_size() walks it for
  // the store's bytes_written().
  [[nodiscard]] auto fields() const {
    return std::tie(proxy, mh, current_loc, requests);
  }
};

class ProxyCheckpointStore {
 public:
  struct Config {
    // Delay until a put/erase becomes durable (simulated disk latency).
    common::Duration write_latency = common::Duration::millis(2);
  };

  ProxyCheckpointStore(sim::Simulator& simulator, Config config)
      : simulator_(simulator), config_(config) {}

  ProxyCheckpointStore(const ProxyCheckpointStore&) = delete;
  ProxyCheckpointStore& operator=(const ProxyCheckpointStore&) = delete;

  // Write (replace) the record for (mss, record.proxy); durable after
  // write_latency.  A crash in between loses this delta but keeps any
  // earlier durable record.
  void put(common::MssId mss, ProxyCheckpoint record);

  // Remove the record for (mss, proxy); durable after write_latency.
  void erase(common::MssId mss, common::ProxyId proxy);

  // The durable snapshot for one Mss, in proxy-id order.
  [[nodiscard]] std::vector<ProxyCheckpoint> restore(common::MssId mss) const;

  [[nodiscard]] bool contains(common::MssId mss, common::ProxyId proxy) const;

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t erases() const { return erases_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  sim::Simulator& simulator_;
  Config config_;
  std::unordered_map<common::MssId, std::map<common::ProxyId, ProxyCheckpoint>>
      durable_;
  std::uint64_t writes_ = 0;
  std::uint64_t erases_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace rdp::core
