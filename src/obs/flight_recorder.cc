#include "obs/flight_recorder.h"

#include <cstdio>

#include "obs/event_names.h"

namespace rdp::obs {

std::string format(const core::EventRecord& r) {
  using core::Hook;
  using std::to_string;
  const std::string req = r.request.str();
  switch (r.kind) {
    case Hook::kProxyCreated:
      return "proxy_created " + r.proxy.str() + " for " + r.mh.str() +
             " at " + r.node.str();
    case Hook::kProxyDeleted:
      return "proxy_deleted " + r.proxy.str() + " for " + r.mh.str() +
             " at " + r.node.str() + (r.flag ? " [gc]" : "");
    case Hook::kRequestIssued:
      return "request_issued " + req + " by " + r.mh.str() + " to " +
             r.node.str();
    case Hook::kRequestReachedProxy:
      return "request_reached_proxy " + req + " at " + r.node.str();
    case Hook::kResultAtProxy:
      return "result_at_proxy " + req + " seq=" + to_string(r.seq);
    case Hook::kResultForwarded:
      return "result_forwarded " + req + " seq=" + to_string(r.seq) +
             " attempt=" + to_string(r.attempt) + " to=" + r.node.str() +
             (r.flag ? " [del-pref]" : "");
    case Hook::kResultDelivered:
      return "result_delivered " + req + " seq=" + to_string(r.seq) +
             " at " + r.mh.str() + " attempt=" + to_string(r.attempt) +
             (r.flag ? " [final]" : "") + (r.flag2 ? " [dup]" : "");
    case Hook::kAckForwarded:
      return "ack_forwarded " + req + " seq=" + to_string(r.seq) +
             (r.flag ? " [del-proxy]" : "");
    case Hook::kRequestCompleted:
      return "request_completed " + req;
    case Hook::kReissueExhausted:
      return "REISSUE_EXHAUSTED " + req + " by " + r.mh.str() + " after " +
             to_string(static_cast<int>(r.attempt)) + " re-issues";
    case Hook::kRequestLost:
      return "REQUEST_LOST " + req + " of " + r.mh.str() +
             " reason=" + loss_reason_name(r.reason);
    case Hook::kArqFrameSent:
      return "arq_frame_sent " + r.mh.str() + " epoch=" + to_string(r.epoch) +
             " seq=" + to_string(r.seq) + " attempt=" + to_string(r.attempt) +
             " in_flight=" + to_string(r.count) +
             " window=" + to_string(r.count2);
    case Hook::kArqDelivered:
      return "arq_delivered " + r.mh.str() + " epoch=" + to_string(r.epoch) +
             " seq=" + to_string(r.seq) + (r.flag ? " [dup]" : "");
    case Hook::kHandoffStarted:
      return "handoff_started " + r.mh.str() + " " + r.mss.str() + "->" +
             r.mss_to.str();
    case Hook::kHandoffCompleted:
      return "handoff_completed " + r.mh.str() + " " + r.mss.str() + "->" +
             r.mss_to.str() + " (" + r.span.str() + ", " +
             to_string(r.count) + " B)";
    case Hook::kUpdateCurrentloc:
      return "update_currentLoc " + r.mh.str() + " proxy@" + r.node.str() +
             " -> " + r.node2.str();
    case Hook::kMhRegistered:
      return "mh_registered " + r.mh.str() + " at " + r.mss.str() + " (" +
             r.span.str() + ")";
    case Hook::kStaleAckDropped:
      return "stale_ack_dropped " + req + " from " + r.mh.str();
    case Hook::kDelproxyWithPending:
      return "ANOMALY delproxy_with_pending " + r.proxy.str() + " of " +
             r.mh.str();
    case Hook::kOrphanedProxy:
      return "orphaned_proxy " + r.proxy.str() + " of " + r.mh.str();
    case Hook::kMssCrashed:
      return "MSS_CRASHED " + r.mss.str() + " (" + to_string(r.count) +
             " proxies lost, " + to_string(r.count2) + " Mhs detached)";
    case Hook::kMssRestarted:
      return "mss_restarted " + r.mss.str() + " (" + to_string(r.count) +
             " proxies restored)";
    case Hook::kProxyRestored:
      return "proxy_restored " + r.proxy.str() + " for " + r.mh.str() +
             " at " + r.node.str();
    case Hook::kRequestReissued:
      return "request_reissued " + req + " by " + r.mh.str() +
             " attempt=" + to_string(static_cast<int>(r.attempt));
    case Hook::kBackupPromoted:
      return "BACKUP_PROMOTED " + r.mss.str() + "->" + r.mss_to.str() + " (" +
             to_string(r.count) + " proxies adopted)";
    case Hook::kMssDeparted:
      return "mss_departed " + r.mss.str() + " epoch=" + to_string(r.epoch);
    case Hook::kMssRejoined:
      return "mss_rejoined " + r.mss.str() + " epoch=" + to_string(r.epoch);
    case Hook::kPrimaryDemoted:
      return "PRIMARY_DEMOTED " + r.mss.str() + " (" + to_string(r.count) +
             " proxies dropped)";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::Entry& FlightRecorder::next_slot() {
  ++total_;
  Entry& slot = ring_[next_];
  next_ = (next_ + 1) % ring_.size();
  return slot;
}

void FlightRecorder::record(common::SimTime at, std::string line) {
  Entry& slot = next_slot();
  slot.event.at = at;
  slot.is_note = true;
  slot.note = std::move(line);
}

void FlightRecorder::on_event(const core::EventRecord& record) {
  Entry& slot = next_slot();
  slot.event = record;
  slot.is_note = false;
  if (record.kind == core::Hook::kRequestLost && loss_sink_ != nullptr &&
      !loss_dumped_) {
    loss_dumped_ = true;
    dump(*loss_sink_);
  }
}

std::size_t FlightRecorder::size() const {
  return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                               : ring_.size();
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::size_t retained = size();
  os << "-- flight recorder: last " << retained << " of " << total_
     << " events --\n";
  // Once the ring has wrapped, the oldest entry is the next to be
  // overwritten.
  const std::size_t oldest = retained < ring_.size() ? 0 : next_;
  char stamp[32];
  for (std::size_t i = 0; i < retained; ++i) {
    const Entry& entry = ring_[(oldest + i) % ring_.size()];
    std::snprintf(stamp, sizeof(stamp), "%12.3f ms  ",
                  entry.event.at.to_seconds() * 1e3);
    os << stamp << (entry.is_note ? entry.note : format(entry.event)) << '\n';
  }
}

void FlightRecorder::clear() {
  next_ = 0;
  total_ = 0;
  loss_dumped_ = false;
}

}  // namespace rdp::obs
