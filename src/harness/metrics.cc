#include "harness/metrics.h"

namespace rdp::harness {

void MetricsCollector::on_result_delivered(core::SimTime t, core::MhId,
                                           core::RequestId r,
                                           std::uint32_t /*seq*/, bool final,
                                           bool duplicate,
                                           std::uint32_t /*attempt*/) {
  if (duplicate) {
    ++app_duplicates;
    bump(duplicates_, "rdp.results.duplicates");
    return;
  }
  ++results_delivered;
  bump(delivered_, "rdp.results.delivered");
  if (const core::SimTime* issued = issue_time_.find(r.packed())) {
    delivery_latency_ms.add(t - *issued);
    if (registry_ != nullptr) {
      histogram(delivery_latency_, "rdp.delivery.latency_ms")
          .add(t - *issued);
    }
  }
  if (final && finals_delivered_.insert(r.packed())) {
    ++requests_completed_at_mh_;
    // The result was already in flight when a crash reported the request
    // lost; the delivery supersedes the loss.
    if (lost_requests_.erase(r) > 0) --requests_lost;
  }
}

}  // namespace rdp::harness
