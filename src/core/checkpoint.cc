#include "core/checkpoint.h"

#include "net/codec.h"

namespace rdp::core {

void ProxyCheckpointStore::put(common::MssId mss, ProxyCheckpoint record) {
  ++writes_;
  bytes_written_ += net::encoded_size(record);
  if (config_.write_latency <= common::Duration::zero()) {
    durable_[mss][record.proxy] = std::move(record);
    return;
  }
  simulator_.schedule(
      config_.write_latency,
      [this, mss, record = std::move(record)]() mutable {
        durable_[mss][record.proxy] = std::move(record);
      },
      sim::EventPriority::kLow);
}

void ProxyCheckpointStore::erase(common::MssId mss, common::ProxyId proxy) {
  ++erases_;
  if (config_.write_latency <= common::Duration::zero()) {
    if (auto it = durable_.find(mss); it != durable_.end()) {
      it->second.erase(proxy);
    }
    return;
  }
  simulator_.schedule(
      config_.write_latency,
      [this, mss, proxy] {
        if (auto it = durable_.find(mss); it != durable_.end()) {
          it->second.erase(proxy);
        }
      },
      sim::EventPriority::kLow);
}

std::vector<ProxyCheckpoint> ProxyCheckpointStore::restore(
    common::MssId mss) const {
  std::vector<ProxyCheckpoint> out;
  auto it = durable_.find(mss);
  if (it == durable_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [proxy, record] : it->second) out.push_back(record);
  return out;
}

bool ProxyCheckpointStore::contains(common::MssId mss,
                                    common::ProxyId proxy) const {
  auto it = durable_.find(mss);
  return it != durable_.end() && it->second.contains(proxy);
}

}  // namespace rdp::core
