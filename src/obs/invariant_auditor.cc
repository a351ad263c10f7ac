#include "obs/invariant_auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/directory.h"
#include "obs/flight_recorder.h"

namespace rdp::obs {

InvariantAuditor::InvariantAuditor(Config config,
                                   const core::Directory* directory)
    : config_(config), directory_(directory) {
  if (config_.honor_fatal_env) {
    const char* env = std::getenv("RDP_AUDIT_FATAL");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
      config_.fatal = true;
    }
  }
}

void InvariantAuditor::violate(common::SimTime at, const std::string& what) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%.3f", at.to_seconds() * 1e3);
  violations_.push_back("t=" + std::string(stamp) + "ms " + what);
  if (violations_.size() == 1 && recorder_ != nullptr) {
    std::cerr << "[rdp-audit] first invariant violation; event tail:\n";
    recorder_->dump(std::cerr);
  }
  if (config_.fatal) {
    std::cerr << "[rdp-audit] FATAL invariant violation: "
              << violations_.back() << "\n";
    std::abort();
  }
}

std::pair<std::uint32_t, bool> InvariantAuditor::request_book(
    core::RequestId r) {
  auto [index, inserted] = request_index_.try_emplace(r.packed());
  if (inserted) {
    *index = static_cast<std::uint32_t>(requests_.size());
    const std::uint32_t mh = mh_book(r.mh());
    RequestBook& book = requests_.emplace_back();
    book.id = r;
    book.mh_book = mh;
  }
  return {*index, inserted};
}

std::uint32_t InvariantAuditor::mh_book(core::MhId mh) {
  auto [index, inserted] = mh_index_.try_emplace(mh.value());
  if (inserted) {
    *index = static_cast<std::uint32_t>(mh_books_.size());
    mh_books_.emplace_back();
  }
  return *index;
}

void InvariantAuditor::list_open(std::uint32_t request) {
  const std::uint32_t seq = requests_[request].id.seq();
  std::vector<std::uint32_t>& open = mh_books_[requests_[request].mh_book].open;
  auto at = open.end();
  while (at != open.begin() && requests_[*(at - 1)].id.seq() > seq) --at;
  open.insert(at, request);
}

void InvariantAuditor::unlist_open(std::uint32_t request) {
  std::erase(mh_books_[requests_[request].mh_book].open, request);
}

void InvariantAuditor::forget_host(core::NodeAddress host) {
  const auto at_host = [host](ProxyRef proxy) { return proxy.host == host; };
  for (MhBook& book : mh_books_) std::erase_if(book.live, at_host);
}

void InvariantAuditor::add_live_proxy(common::SimTime t, core::MhId mh,
                                      core::NodeAddress host, core::ProxyId p,
                                      const char* how) {
  std::vector<ProxyRef>& live = mh_books_[mh_book(mh)].live;
  if (std::find(live.begin(), live.end(), ProxyRef{host, p}) == live.end()) {
    live.push_back({host, p});
  }
  if (live.size() > 1 && !config_.allow_proxy_coexistence) {
    violate(t, "R1 " + mh.str() + " has " + std::to_string(live.size()) +
                   " live proxies after " + p.str() + " " + how + " at " +
                   host.str());
  }
}

void InvariantAuditor::on_proxy_created(common::SimTime t, core::MhId mh,
                                        core::NodeAddress host,
                                        core::ProxyId p) {
  add_live_proxy(t, mh, host, p, "created");
}

void InvariantAuditor::on_ack_forwarded(common::SimTime, core::MhId mh,
                                        core::RequestId, std::uint32_t,
                                        bool del_proxy) {
  if (!del_proxy) return;
  // The del-proxy ack is the teardown order in flight: the protocol is done
  // with the proxy the moment the ack leaves the Mss, but on_proxy_deleted
  // fires only when the order lands one wire latency later.  A fast-moving
  // Mh can issue its next request (and get a new proxy) inside that window,
  // so the old incarnation stops counting against R1 now.
  const std::uint32_t* index = mh_index_.find(mh.value());
  if (index != nullptr) mh_books_[*index].live.clear();
}

void InvariantAuditor::on_proxy_deleted(common::SimTime t, core::MhId mh,
                                        core::NodeAddress host, core::ProxyId p,
                                        bool via_gc) {
  const std::uint32_t* index = mh_index_.find(mh.value());
  if (index == nullptr) return;
  MhBook& book = mh_books_[*index];
  std::erase(book.live, ProxyRef{host, p});
  if (via_gc || config_.allow_delproxy_with_pending) return;
  // R4: a del-proxy teardown must not discard pending requests.  GC'd
  // abandoned proxies report their pending requests lost *before* the
  // deletion event, so anything still open here was silently dropped.
  // Only requests bound to *this* host count: a revisit-pattern Mh's newest
  // request may already be pending at a fresh proxy while the drained old
  // one is torn down.
  for (const std::uint32_t request : book.open) {
    if (requests_[request].proxy_host == host) {
      violate(t, "R4 " + p.str() + " deleted while " +
                     requests_[request].id.str() + " still pending");
    }
  }
}

void InvariantAuditor::on_request_issued(common::SimTime, core::MhId,
                                         core::RequestId r,
                                         core::NodeAddress) {
  // Re-issue of a lost request lands here again; keep the original book.
  if (request_book(r).second) ++issued_;
}

void InvariantAuditor::on_request_reached_proxy(common::SimTime t, core::MhId,
                                                core::RequestId r,
                                                core::NodeAddress host) {
  const std::uint32_t* index = request_index_.find(r.packed());
  if (index == nullptr) {
    violate(t, "R2 " + r.str() + " reached a proxy but was never issued");
    return;
  }
  RequestBook& book = requests_[*index];
  const bool was_open = book.open();
  book.reached_proxy = true;
  // Latest binding wins: a re-issued or re-forwarded request is served by
  // whichever proxy saw it last.
  book.proxy_host = host;
  if (!was_open && book.open()) list_open(*index);
}

void InvariantAuditor::on_result_at_proxy(common::SimTime t, core::MhId,
                                          core::RequestId r,
                                          std::uint32_t seq) {
  const std::uint32_t* index = request_index_.find(r.packed());
  if (index == nullptr) {
    violate(t, "R2 result (seq " + std::to_string(seq) + ") at proxy for " +
                   r.str() + " which was never issued");
    return;
  }
  RequestBook& book = requests_[*index];
  if (book.any_seq_at_proxy && seq <= book.max_seq_at_proxy &&
      !config_.allow_result_reordering) {
    violate(t, "R3 " + r.str() + " result seq " + std::to_string(seq) +
                   " at proxy after seq " +
                   std::to_string(book.max_seq_at_proxy));
  }
  book.any_seq_at_proxy = true;
  if (seq > book.max_seq_at_proxy) book.max_seq_at_proxy = seq;
}

void InvariantAuditor::on_result_delivered(common::SimTime t, core::MhId mh,
                                           core::RequestId r, std::uint32_t seq,
                                           bool final, bool duplicate,
                                           std::uint32_t) {
  const std::uint32_t* index = request_index_.find(r.packed());
  if (index == nullptr) {
    violate(t, "R2 result (seq " + std::to_string(seq) + ") delivered to " +
                   mh.str() + " for " + r.str() + " which was never issued");
    return;
  }
  RequestBook& book = requests_[*index];
  book.delivered_any = true;
  if (final && !duplicate) {
    if (book.final_delivered) {
      violate(t, "R5 " + r.str() +
                     " final result delivered twice without the duplicate "
                     "filter tripping (seq " +
                     std::to_string(seq) + ")");
    } else {
      book.final_delivered = true;
      ++finished_;
    }
  }
}

void InvariantAuditor::on_request_completed(common::SimTime t, core::MhId,
                                            core::RequestId r) {
  const std::uint32_t* index = request_index_.find(r.packed());
  if (index == nullptr) {
    violate(t, "R2 " + r.str() + " completed but was never issued");
    return;
  }
  RequestBook& book = requests_[*index];
  if (!book.delivered_any) {
    violate(t, "R6 " + r.str() +
                   " completed at the proxy before any delivery to the Mh");
  }
  if (book.open()) unlist_open(*index);
  book.completed = true;
}

void InvariantAuditor::on_request_lost(common::SimTime, core::MhId,
                                       core::RequestId r,
                                       core::RequestLossReason) {
  // Loss is never an online violation: pre-proxy drops during hand-off are
  // §4's "deferred to QRPC" case, and ablations lose requests by design.
  // The books only record it for check_quiesced().
  const std::uint32_t index = request_book(r).first;
  RequestBook& book = requests_[index];
  if (book.lost) return;
  if (book.open()) unlist_open(index);
  book.lost = true;
  ++lost_;
}

void InvariantAuditor::on_delproxy_with_pending(common::SimTime, core::MhId,
                                                core::ProxyId) {
  // An *attempted* del-proxy with pending requests is the protocol's
  // refusal path working (the proxy answers MsgPrefRestore), not a broken
  // invariant; R4 fires only if a deletion actually discards work.
}

void InvariantAuditor::on_mss_crashed(common::SimTime, core::MssId mss,
                                      std::size_t, std::size_t) {
  down_mss_.insert(mss);
  // R7: a dead promoter no longer owns the primaries it adopted — the next
  // chain member may legally promote them again.
  for (auto it = promoter_of_.begin(); it != promoter_of_.end();) {
    if (it->second == mss) {
      it = promoter_of_.erase(it);
    } else {
      ++it;
    }
  }
  // A crash destroys every proxy hosted at that Mss without per-proxy
  // deletion events; drop them from the live set so a post-crash re-create
  // does not look like coexistence.
  if (directory_ == nullptr) return;
  forget_host(directory_->mss_address(mss));
}

void InvariantAuditor::on_mss_restarted(common::SimTime, core::MssId mss,
                                        std::size_t) {
  down_mss_.erase(mss);
}

void InvariantAuditor::on_mss_departed(common::SimTime, core::MssId mss,
                                       std::uint64_t) {
  departed_mss_.insert(mss);
}

void InvariantAuditor::on_mss_rejoined(common::SimTime, core::MssId mss,
                                       std::uint64_t) {
  departed_mss_.erase(mss);
  // Ownership settled: the rejoining (fenced, demoted) primary starts
  // fresh, so a future crash+promotion cycle opens a new R7 book.
  promoter_of_.erase(mss);
}

void InvariantAuditor::on_proxy_restored(common::SimTime t, core::MhId mh,
                                         core::NodeAddress host,
                                         core::ProxyId p) {
  add_live_proxy(t, mh, host, p, "restored");
}

void InvariantAuditor::on_backup_promoted(common::SimTime t,
                                          core::MssId primary,
                                          core::MssId backup, std::size_t) {
  // R7: promoting a primary that is neither down nor departed would put
  // two live owners on the wire for the same proxy set.
  if (!down_mss_.contains(primary) && !departed_mss_.contains(primary)) {
    violate(t, "R7 " + backup.str() + " promoted live primary " +
                   primary.str());
  }
  auto it = promoter_of_.find(primary);
  if (it != promoter_of_.end() && it->second != backup) {
    // The previous promoter is still up (its crash would have cleared the
    // entry): a second concurrent owner.
    violate(t, "R7 " + backup.str() + " promoted " + primary.str() +
                   " while promoter " + it->second.str() + " is still live");
  }
  promoter_of_[primary] = backup;
  // Promotion re-homes the dead primary's proxies at the backup; the
  // adopted incarnations arrive as on_proxy_restored events.  The primary's
  // entries were already dropped from the live books at crash time,
  // but a promotion can also follow a *resync-rebuilt* shadow whose crash
  // predates this auditor, so clear them again defensively.
  if (directory_ == nullptr) return;
  forget_host(directory_->mss_address(primary));
}

void InvariantAuditor::on_arq_frame_sent(common::SimTime t, core::MhId mh,
                                         std::uint32_t epoch, std::uint32_t seq,
                                         std::uint32_t attempt,
                                         std::size_t in_flight,
                                         std::size_t window_limit) {
  // A2: only first transmissions are admissions; a retransmission after the
  // window halved legitimately reports in_flight > window_limit.
  if (attempt == 1 && in_flight > window_limit) {
    violate(t, "A2 " + mh.str() + " arq epoch " + std::to_string(epoch) +
                   " seq " + std::to_string(seq) + " admitted with " +
                   std::to_string(in_flight) + " in flight > window " +
                   std::to_string(window_limit));
  }
}

void InvariantAuditor::on_arq_delivered(common::SimTime t, core::MhId mh,
                                        std::uint32_t epoch, std::uint32_t seq,
                                        bool duplicate) {
  if (duplicate) return;  // dropped before the protocol, by design
  // A1: per (Mh, epoch) the receiver releases 0, 1, 2, ... exactly once.
  // The current epoch is almost always the newest, so search from the back.
  auto& frontiers = mh_books_[mh_book(mh)].arq_next;
  auto it = std::find_if(frontiers.rbegin(), frontiers.rend(),
                         [epoch](const auto& f) { return f.first == epoch; });
  std::uint32_t& next = it != frontiers.rend()
                            ? it->second
                            : frontiers.emplace_back(epoch, 0).second;
  if (seq < next) {
    // A re-release below the frontier: report it but leave the frontier
    // alone, or every subsequent in-order delivery would cascade.
    violate(t, "A1 " + mh.str() + " arq epoch " + std::to_string(epoch) +
                   " re-delivered seq " + std::to_string(seq) +
                   " below frontier " + std::to_string(next));
    return;
  }
  if (seq > next) {
    violate(t, "A1 " + mh.str() + " arq epoch " + std::to_string(epoch) +
                   " delivered seq " + std::to_string(seq) + " but expected " +
                   std::to_string(next));
    next = seq;  // resync so one gap reports once
  }
  ++next;
}

bool InvariantAuditor::check_quiesced() {
  // Books are in first-event order; the report lists stragglers by id.
  std::vector<core::RequestId> stragglers;
  for (const RequestBook& book : requests_) {
    if (!book.final_delivered && !book.lost) stragglers.push_back(book.id);
  }
  std::sort(stragglers.begin(), stragglers.end());
  for (const core::RequestId request : stragglers) {
    violations_.push_back("quiesce: " + request.str() +
                          " neither delivered nor lost");
  }
  const bool balanced = stragglers.empty();
  if (!balanced && config_.fatal) {
    write_report(std::cerr);
    std::abort();
  }
  return balanced;
}

void InvariantAuditor::write_report(std::ostream& os) const {
  os << "[rdp-audit] issued=" << issued_ << " finished=" << finished_
     << " lost=" << lost_ << " violations=" << violations_.size() << "\n";
  for (const std::string& violation : violations_) {
    os << "[rdp-audit]   " << violation << "\n";
  }
}

}  // namespace rdp::obs
