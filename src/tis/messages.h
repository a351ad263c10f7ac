// Inter-TIS messages: the data-location and retrieval protocol among the
// Traffic Information Servers (§1: "queries and updates to the global
// information base may involve complex searches, interactions and
// processing within the TIS network").
//
// Every forwarded operation carries the full reply path (proxy host +
// proxy + request) so the owning server can answer the mobile client's
// proxy directly; aggregate queries return partials to the entry server,
// which combines them.
//
// Each message's fields() is its wire layout and sizes it, as in
// core/messages.h; nothing decodes these, so they have no codec tag.
#pragma once

#include <cstdint>
#include <tuple>

#include "common/ids.h"
#include "net/message.h"

namespace rdp::tis {

using common::NodeAddress;
using common::ProxyId;
using common::RequestId;

// entry TIS -> owner TIS: single-region query.
struct MsgTisGet final : net::Message<MsgTisGet> {
  NodeAddress proxy_host;
  ProxyId proxy;
  RequestId request;
  std::uint32_t region;

  MsgTisGet(NodeAddress proxy_host_in, ProxyId proxy_in, RequestId request_in,
            std::uint32_t region_in)
      : proxy_host(proxy_host_in),
        proxy(proxy_in),
        request(request_in),
        region(region_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(proxy_host, proxy, request, region);
  }
  [[nodiscard]] const char* name() const override { return "tisGet"; }
};

// entry TIS -> owner TIS: single-region update.
struct MsgTisSet final : net::Message<MsgTisSet> {
  NodeAddress proxy_host;
  ProxyId proxy;
  RequestId request;
  std::uint32_t region;
  int value;

  MsgTisSet(NodeAddress proxy_host_in, ProxyId proxy_in, RequestId request_in,
            std::uint32_t region_in, int value_in)
      : proxy_host(proxy_host_in),
        proxy(proxy_in),
        request(request_in),
        region(region_in),
        value(value_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(proxy_host, proxy, request, region, value);
  }
  [[nodiscard]] const char* name() const override { return "tisSet"; }
};

// entry TIS -> owner TIS: partial aggregate over the owner's share of a
// region range.
struct MsgTisAreaPart final : net::Message<MsgTisAreaPart> {
  NodeAddress entry;  // who aggregates
  std::uint64_t collect_id;
  std::uint32_t first, last;  // inclusive range; owner picks its regions

  MsgTisAreaPart(NodeAddress entry_in, std::uint64_t collect_id_in,
                 std::uint32_t first_in, std::uint32_t last_in)
      : entry(entry_in),
        collect_id(collect_id_in),
        first(first_in),
        last(last_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(entry, collect_id, first, last);
  }
  [[nodiscard]] const char* name() const override { return "tisAreaPart"; }
};

// owner TIS -> entry TIS: partial aggregate reply.
struct MsgTisAreaReply final : net::Message<MsgTisAreaReply> {
  std::uint64_t collect_id;
  std::int64_t sum;
  std::uint32_t count;

  MsgTisAreaReply(std::uint64_t collect_id_in, std::int64_t sum_in,
                  std::uint32_t count_in)
      : collect_id(collect_id_in), sum(sum_in), count(count_in) {}
  [[nodiscard]] auto fields() const { return std::tie(collect_id, sum, count); }
  [[nodiscard]] const char* name() const override { return "tisAreaReply"; }
};

// entry TIS -> owner TIS: register a threshold subscription.
struct MsgTisSub final : net::Message<MsgTisSub> {
  NodeAddress proxy_host;
  ProxyId proxy;
  RequestId request;
  std::uint32_t region;
  int threshold;

  MsgTisSub(NodeAddress proxy_host_in, ProxyId proxy_in, RequestId request_in,
            std::uint32_t region_in, int threshold_in)
      : proxy_host(proxy_host_in),
        proxy(proxy_in),
        request(request_in),
        region(region_in),
        threshold(threshold_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(proxy_host, proxy, request, region, threshold);
  }
  [[nodiscard]] const char* name() const override { return "tisSub"; }
};

// entry TIS -> owner TIS: terminate a forwarded subscription.
struct MsgTisUnsub final : net::Message<MsgTisUnsub> {
  RequestId request;

  explicit MsgTisUnsub(RequestId request_in) : request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(request); }
  [[nodiscard]] const char* name() const override { return "tisUnsub"; }
};

}  // namespace rdp::tis
