#include "core/event_record.h"

namespace rdp::core {

void replay(const EventRecord& r, RdpObserver& o) {
  const auto epoch32 = static_cast<std::uint32_t>(r.epoch);
  const auto attempts = static_cast<int>(r.attempt);
  switch (r.kind) {
    case Hook::kProxyCreated:
      return o.on_proxy_created(r.at, r.mh, r.node, r.proxy);
    case Hook::kProxyDeleted:
      return o.on_proxy_deleted(r.at, r.mh, r.node, r.proxy, r.flag);
    case Hook::kRequestIssued:
      return o.on_request_issued(r.at, r.mh, r.request, r.node);
    case Hook::kRequestReachedProxy:
      return o.on_request_reached_proxy(r.at, r.mh, r.request, r.node);
    case Hook::kResultAtProxy:
      return o.on_result_at_proxy(r.at, r.mh, r.request, r.seq);
    case Hook::kResultForwarded:
      return o.on_result_forwarded(r.at, r.mh, r.request, r.seq, r.node,
                                   r.attempt, r.flag);
    case Hook::kResultDelivered:
      return o.on_result_delivered(r.at, r.mh, r.request, r.seq, r.flag,
                                   r.flag2, r.attempt);
    case Hook::kAckForwarded:
      return o.on_ack_forwarded(r.at, r.mh, r.request, r.seq, r.flag);
    case Hook::kRequestCompleted:
      return o.on_request_completed(r.at, r.mh, r.request);
    case Hook::kReissueExhausted:
      return o.on_reissue_exhausted(r.at, r.mh, r.request, attempts);
    case Hook::kRequestLost:
      return o.on_request_lost(r.at, r.mh, r.request, r.reason);
    case Hook::kArqFrameSent:
      return o.on_arq_frame_sent(r.at, r.mh, epoch32, r.seq, r.attempt,
                                 r.count, r.count2);
    case Hook::kArqDelivered:
      return o.on_arq_delivered(r.at, r.mh, epoch32, r.seq, r.flag);
    case Hook::kHandoffStarted:
      return o.on_handoff_started(r.at, r.mh, r.mss, r.mss_to);
    case Hook::kHandoffCompleted:
      return o.on_handoff_completed(r.at, r.mh, r.mss, r.mss_to, r.span,
                                    r.count);
    case Hook::kUpdateCurrentloc:
      return o.on_update_currentloc(r.at, r.mh, r.node, r.node2);
    case Hook::kMhRegistered:
      return o.on_mh_registered(r.at, r.mh, r.mss, r.span);
    case Hook::kStaleAckDropped:
      return o.on_stale_ack_dropped(r.at, r.mh, r.request);
    case Hook::kDelproxyWithPending:
      return o.on_delproxy_with_pending(r.at, r.mh, r.proxy);
    case Hook::kOrphanedProxy:
      return o.on_orphaned_proxy(r.at, r.mh, r.proxy);
    case Hook::kMssCrashed:
      return o.on_mss_crashed(r.at, r.mss, r.count, r.count2);
    case Hook::kMssRestarted:
      return o.on_mss_restarted(r.at, r.mss, r.count);
    case Hook::kProxyRestored:
      return o.on_proxy_restored(r.at, r.mh, r.node, r.proxy);
    case Hook::kRequestReissued:
      return o.on_request_reissued(r.at, r.mh, r.request, attempts);
    case Hook::kBackupPromoted:
      return o.on_backup_promoted(r.at, r.mss, r.mss_to, r.count);
    case Hook::kMssDeparted:
      return o.on_mss_departed(r.at, r.mss, r.epoch);
    case Hook::kMssRejoined:
      return o.on_mss_rejoined(r.at, r.mss, r.epoch);
    case Hook::kPrimaryDemoted:
      return o.on_primary_demoted(r.at, r.mss, r.count);
  }
}

}  // namespace rdp::core
