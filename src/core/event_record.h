// One typed record per observer event.
//
// The 28 RdpObserver hooks are the protocol's event stream; consumers that
// store, forward or render events generically (the shard observer buffers,
// the flight recorder, the telemetry sampler) take that stream as
// EventRecords instead of re-implementing every hook.  Three conversions,
// each written exactly once:
//   * EventRecorder  — hook call -> record (an RdpObserver adapter);
//   * replay()       — record -> the same hook call on another observer;
//   * obs::format()  — record -> the flight recorder's text line.
// A record is a trivially copyable value: buffering or overwriting one
// never allocates.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/events.h"

namespace rdp::core {

// The hook kind selects which fields are meaningful; the rest keep their
// default values.  An aggregate, so a conversion names the fields it sets
// with designated initializers (in declaration order).  Field use per kind
// (names as in the hook signatures):
//   mh       every Mh hook
//   request  the request hooks
//   mss      mss_crashed / mss_restarted / mss_departed / mss_rejoined /
//            primary_demoted; mh_registered's Mss; hand-off `from`;
//            backup_promoted `primary`
//   mss_to   hand-off `to`; backup_promoted `backup`
//   node     proxy host, request server, result_forwarded `to_mss`,
//            update_currentloc `proxy_host`
//   node2    update_currentloc `new_loc`
//   proxy    the proxy hooks
//   seq      result sequence number; ARQ frame sequence number
//   attempt  forward / delivery / ARQ attempt; re-issue attempt(s)
//   epoch    ARQ channel epoch; membership epoch
//   count    in_flight, state_bytes, proxies_lost, proxies_restored,
//            proxies_adopted, proxies_dropped
//   count2   window_limit, mhs_detached
//   span     handoff latency, mh_registered since_greet
//   reason   request_lost
//   flag     via_gc, del_pref, final, del_proxy, ARQ duplicate
//   flag2    result_delivered app_duplicate
struct EventRecord {
  SimTime at{};
  Hook kind = Hook::kProxyCreated;
  MhId mh{};
  RequestId request{};
  MssId mss{};
  MssId mss_to{};
  NodeAddress node{};
  NodeAddress node2{};
  ProxyId proxy{};
  std::uint32_t seq = 0;
  std::uint32_t attempt = 0;
  std::uint64_t epoch = 0;
  std::uint64_t count = 0;
  std::uint64_t count2 = 0;
  Duration span{};
  RequestLossReason reason = RequestLossReason::kProxyGone;
  bool flag = false;
  bool flag2 = false;
};
static_assert(std::is_trivially_copyable_v<EventRecord>);

// Turns each hook call into an EventRecord and hands it to on_event().
// Subclasses narrow hook_mask() to the kinds they want.
class EventRecorder : public RdpObserver {
 public:
  virtual void on_event(const EventRecord& record) = 0;

  void on_proxy_created(SimTime t, MhId mh, NodeAddress host, ProxyId p) final {
    on_event({.at = t, .kind = Hook::kProxyCreated, .mh = mh, .node = host,
              .proxy = p});
  }
  void on_proxy_deleted(SimTime t, MhId mh, NodeAddress host, ProxyId p,
                        bool via_gc) final {
    on_event({.at = t, .kind = Hook::kProxyDeleted, .mh = mh, .node = host,
              .proxy = p, .flag = via_gc});
  }
  void on_request_issued(SimTime t, MhId mh, RequestId r,
                         NodeAddress server) final {
    on_event({.at = t, .kind = Hook::kRequestIssued, .mh = mh, .request = r,
              .node = server});
  }
  void on_request_reached_proxy(SimTime t, MhId mh, RequestId r,
                                NodeAddress proxy_host) final {
    on_event({.at = t, .kind = Hook::kRequestReachedProxy, .mh = mh,
              .request = r, .node = proxy_host});
  }
  void on_result_at_proxy(SimTime t, MhId mh, RequestId r,
                          std::uint32_t seq) final {
    on_event({.at = t, .kind = Hook::kResultAtProxy, .mh = mh, .request = r,
              .seq = seq});
  }
  void on_result_forwarded(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                           NodeAddress to_mss, std::uint32_t attempt,
                           bool del_pref) final {
    on_event({.at = t, .kind = Hook::kResultForwarded, .mh = mh, .request = r,
              .node = to_mss, .seq = seq, .attempt = attempt,
              .flag = del_pref});
  }
  void on_result_delivered(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                           bool final, bool app_duplicate,
                           std::uint32_t attempt) final {
    on_event({.at = t, .kind = Hook::kResultDelivered, .mh = mh, .request = r,
              .seq = seq, .attempt = attempt, .flag = final,
              .flag2 = app_duplicate});
  }
  void on_ack_forwarded(SimTime t, MhId mh, RequestId r, std::uint32_t seq,
                        bool del_proxy) final {
    on_event({.at = t, .kind = Hook::kAckForwarded, .mh = mh, .request = r,
              .seq = seq, .flag = del_proxy});
  }
  void on_request_completed(SimTime t, MhId mh, RequestId r) final {
    on_event({.at = t, .kind = Hook::kRequestCompleted, .mh = mh,
              .request = r});
  }
  void on_reissue_exhausted(SimTime t, MhId mh, RequestId r,
                            int attempts) final {
    on_event({.at = t, .kind = Hook::kReissueExhausted, .mh = mh, .request = r,
              .attempt = static_cast<std::uint32_t>(attempts)});
  }
  void on_request_lost(SimTime t, MhId mh, RequestId r,
                       RequestLossReason reason) final {
    on_event({.at = t, .kind = Hook::kRequestLost, .mh = mh, .request = r,
              .reason = reason});
  }
  void on_arq_frame_sent(SimTime t, MhId mh, std::uint32_t epoch,
                         std::uint32_t seq, std::uint32_t attempt,
                         std::size_t in_flight,
                         std::size_t window_limit) final {
    on_event({.at = t, .kind = Hook::kArqFrameSent, .mh = mh, .seq = seq,
              .attempt = attempt, .epoch = epoch, .count = in_flight,
              .count2 = window_limit});
  }
  void on_arq_delivered(SimTime t, MhId mh, std::uint32_t epoch,
                        std::uint32_t seq, bool duplicate) final {
    on_event({.at = t, .kind = Hook::kArqDelivered, .mh = mh, .seq = seq,
              .epoch = epoch, .flag = duplicate});
  }
  void on_handoff_started(SimTime t, MhId mh, MssId from, MssId to) final {
    on_event({.at = t, .kind = Hook::kHandoffStarted, .mh = mh, .mss = from,
              .mss_to = to});
  }
  void on_handoff_completed(SimTime t, MhId mh, MssId from, MssId to,
                            Duration latency, std::size_t state_bytes) final {
    on_event({.at = t, .kind = Hook::kHandoffCompleted, .mh = mh, .mss = from,
              .mss_to = to, .count = state_bytes, .span = latency});
  }
  void on_update_currentloc(SimTime t, MhId mh, NodeAddress proxy_host,
                            NodeAddress new_loc) final {
    on_event({.at = t, .kind = Hook::kUpdateCurrentloc, .mh = mh,
              .node = proxy_host, .node2 = new_loc});
  }
  void on_mh_registered(SimTime t, MhId mh, MssId mss,
                        Duration since_greet) final {
    on_event({.at = t, .kind = Hook::kMhRegistered, .mh = mh, .mss = mss,
              .span = since_greet});
  }
  void on_stale_ack_dropped(SimTime t, MhId mh, RequestId r) final {
    on_event({.at = t, .kind = Hook::kStaleAckDropped, .mh = mh, .request = r});
  }
  void on_delproxy_with_pending(SimTime t, MhId mh, ProxyId p) final {
    on_event({.at = t, .kind = Hook::kDelproxyWithPending, .mh = mh,
              .proxy = p});
  }
  void on_orphaned_proxy(SimTime t, MhId mh, ProxyId p) final {
    on_event({.at = t, .kind = Hook::kOrphanedProxy, .mh = mh, .proxy = p});
  }
  void on_mss_crashed(SimTime t, MssId mss, std::size_t proxies_lost,
                      std::size_t mhs_detached) final {
    on_event({.at = t, .kind = Hook::kMssCrashed, .mss = mss,
              .count = proxies_lost, .count2 = mhs_detached});
  }
  void on_mss_restarted(SimTime t, MssId mss,
                        std::size_t proxies_restored) final {
    on_event({.at = t, .kind = Hook::kMssRestarted, .mss = mss,
              .count = proxies_restored});
  }
  void on_proxy_restored(SimTime t, MhId mh, NodeAddress host,
                         ProxyId p) final {
    on_event({.at = t, .kind = Hook::kProxyRestored, .mh = mh, .node = host,
              .proxy = p});
  }
  void on_request_reissued(SimTime t, MhId mh, RequestId r, int attempt) final {
    on_event({.at = t, .kind = Hook::kRequestReissued, .mh = mh, .request = r,
              .attempt = static_cast<std::uint32_t>(attempt)});
  }
  void on_backup_promoted(SimTime t, MssId primary, MssId backup,
                          std::size_t proxies_adopted) final {
    on_event({.at = t, .kind = Hook::kBackupPromoted, .mss = primary,
              .mss_to = backup, .count = proxies_adopted});
  }
  void on_mss_departed(SimTime t, MssId mss, std::uint64_t epoch) final {
    on_event({.at = t, .kind = Hook::kMssDeparted, .mss = mss, .epoch = epoch});
  }
  void on_mss_rejoined(SimTime t, MssId mss, std::uint64_t epoch) final {
    on_event({.at = t, .kind = Hook::kMssRejoined, .mss = mss, .epoch = epoch});
  }
  void on_primary_demoted(SimTime t, MssId mss,
                          std::size_t proxies_dropped) final {
    on_event({.at = t, .kind = Hook::kPrimaryDemoted, .mss = mss,
              .count = proxies_dropped});
  }
};

// Calls the hook `record` was made from on `observer`, with the same
// arguments.
void replay(const EventRecord& record, RdpObserver& observer);

}  // namespace rdp::core
