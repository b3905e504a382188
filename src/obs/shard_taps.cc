#include "obs/shard_taps.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "net/shard_router.h"
#include "obs/perf_probe.h"
#include "sim/simulator.h"

namespace rdp::obs {

namespace {

// Replay ranks, one per hook kind.  The rank is the tie-break for hooks
// sharing one (time, tag), so the ranks are chosen to match causal emission
// order for every pair a single handler can emit at the same instant: a
// proxy is created before requests reach it, results arrive before they are
// forwarded, and acks, completions and losses are recorded before the
// deletion they trigger (an Mss tearing down a co-located proxy emits all
// of these at one timestamp).  Hooks from different nodes at the same
// instant are concurrent — anything causally related is separated by at
// least one wire latency — so for those any fixed rank works.
//
// The entire teardown chain ranks BEFORE the creation chain: one ARQ batch
// drain can process a final ack (ack -> completed -> proxy deleted) and the
// Mh's next request (proxy created -> reached) back-to-back at a single
// instant, and replaying the new incarnation's hooks before the old one's
// deletion would bind the fresh request to the dead proxy (a spurious R4).
constexpr core::Hook kReplayOrder[] = {
    core::Hook::kMhRegistered,
    // ARQ delivery precedes everything it can trigger at the same instant
    // (request dispatch, proxy creation); the frame-send hook ranks last of
    // all, because a delivery/ack at time t can enqueue and send the next
    // frame at t (result delivered -> uplinkAck enqueued -> frame sent).
    core::Hook::kArqDelivered,
    core::Hook::kResultAtProxy,
    core::Hook::kResultForwarded,
    core::Hook::kResultDelivered,
    core::Hook::kAckForwarded,
    core::Hook::kRequestCompleted,
    core::Hook::kStaleAckDropped,
    core::Hook::kDelproxyWithPending,
    core::Hook::kReissueExhausted,  // emitted right before its request_lost
    core::Hook::kRequestLost,
    core::Hook::kOrphanedProxy,
    core::Hook::kProxyDeleted,
    core::Hook::kProxyCreated,
    core::Hook::kProxyRestored,
    core::Hook::kBackupPromoted,
    core::Hook::kRequestIssued,
    core::Hook::kRequestReissued,
    core::Hook::kRequestReachedProxy,
    core::Hook::kHandoffStarted,
    core::Hook::kHandoffCompleted,
    core::Hook::kUpdateCurrentloc,
    core::Hook::kMssCrashed,
    core::Hook::kMssRestarted,
    core::Hook::kArqFrameSent,  // see kArqDelivered comment
    // Not buffered (ShardObserverBuffer::hook_mask); ranked for totality.
    core::Hook::kMssDeparted,
    core::Hook::kMssRejoined,
    core::Hook::kPrimaryDemoted,
};
static_assert(std::size(kReplayOrder) == core::RdpObserver::kHookCount);

// kReplayOrder inverted: rank of each Hook value.
constexpr auto kReplayRank = [] {
  std::array<std::int32_t, core::RdpObserver::kHookCount> rank{};
  for (std::size_t i = 0; i < std::size(kReplayOrder); ++i) {
    rank[static_cast<std::size_t>(kReplayOrder[i])] =
        static_cast<std::int32_t>(i);
  }
  return rank;
}();

// Primary entity: the Mh, or kMssTagBase | Mss for the Mss-keyed hooks.
std::uint64_t primary_tag(const core::EventRecord& r) {
  switch (r.kind) {
    case core::Hook::kMssCrashed:
    case core::Hook::kMssRestarted:
    case core::Hook::kBackupPromoted:
    case core::Hook::kMssDeparted:
    case core::Hook::kMssRejoined:
    case core::Hook::kPrimaryDemoted:
      return ShardObserverBuffer::kMssTagBase | r.mss.value();
    default:
      return r.mh.value();
  }
}

// Secondary discriminator among one entity's same-rank hooks.
std::uint64_t secondary_tag(const core::EventRecord& r) {
  switch (r.kind) {
    case core::Hook::kProxyCreated:
    case core::Hook::kProxyDeleted:
    case core::Hook::kProxyRestored:
    case core::Hook::kResultForwarded:
    case core::Hook::kUpdateCurrentloc:
      return r.node.value();
    case core::Hook::kHandoffStarted:
    case core::Hook::kHandoffCompleted:
    case core::Hook::kBackupPromoted:
      return r.mss_to.value();
    case core::Hook::kMhRegistered:
      return r.mss.value();
    case core::Hook::kDelproxyWithPending:
    case core::Hook::kOrphanedProxy:
      return r.proxy.value();
    case core::Hook::kArqFrameSent:
    case core::Hook::kArqDelivered:
      return (r.epoch << 32) | r.seq;
    case core::Hook::kMssCrashed:
    case core::Hook::kMssRestarted:
    case core::Hook::kMssDeparted:
    case core::Hook::kMssRejoined:
    case core::Hook::kPrimaryDemoted:
      return 0;
    default:  // the request hooks
      return r.request.seq();
  }
}

}  // namespace

void ShardObserverBuffer::on_wired_send(const net::Envelope& envelope) {
  wired_.push_back(BufferedWiredSend{
      envelope, net::wired_stream_key(envelope.src, envelope.dst),
      next_idx_++});
}

void ShardObserverBuffer::on_wireless_frame(common::MhId mh,
                                            const net::PayloadPtr& payload,
                                            bool uplink,
                                            net::FramePhase phase) {
  frames_.push_back(BufferedFrame{simulator_.now(), mh, uplink, phase, payload,
                                  next_idx_++});
}

// --- merger ----------------------------------------------------------------

void ShardTapMerger::add_buffer(ShardObserverBuffer* buffer) {
  RDP_CHECK(buffer != nullptr, "null shard buffer");
  buffers_.push_back(buffer);
}

void ShardTapMerger::add_wired_sink(WiredSink sink) {
  RDP_CHECK(sink != nullptr, "null wired sink");
  wired_sinks_.push_back(std::move(sink));
}

void ShardTapMerger::add_frame_sink(FrameSink sink) {
  RDP_CHECK(sink != nullptr, "null frame sink");
  frame_sinks_.push_back(std::move(sink));
}

void ShardTapMerger::flush() {
  // Barrier-time replay into the global consumers; replayed hooks go
  // through ObserverList, so their cost splits into the
  // per-hook domains below this one.  The probe itself contributes no
  // invocation — the count added below is one per replayed record, so the
  // domain's count reads as fan-outs performed, not barriers crossed.
  RDP_PROF_SCOPE_NOCOUNT(kHookFanout);
  // The sorts move only the compact keys; records stay in their buffers
  // and are replayed through their (shard, pos) coordinates.
  // Wired sends first, then frames, then hooks (see header).
  wired_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->wired_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      wired_keys_.push_back(WiredKey{records[i].envelope.sent_at,
                                     records[i].link_key, records[i].idx, s,
                                     i});
    }
  }
  std::sort(wired_keys_.begin(), wired_keys_.end(),
            [](const WiredKey& a, const WiredKey& b) {
              if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
              if (a.link_key != b.link_key) return a.link_key < b.link_key;
              return a.idx < b.idx;
            });
  for (const auto& key : wired_keys_) {
    const auto& record = buffers_[key.shard]->wired_[key.pos];
    for (const auto& sink : wired_sinks_) sink(record.envelope);
  }
  for (auto* buffer : buffers_) buffer->wired_.clear();

  frame_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->frames_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      frame_keys_.push_back(FrameKey{records[i].at, records[i].idx,
                                     records[i].mh, s, i, records[i].uplink,
                                     records[i].phase});
    }
  }
  std::sort(frame_keys_.begin(), frame_keys_.end(),
            [](const FrameKey& a, const FrameKey& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.mh != b.mh) return a.mh < b.mh;
              if (a.uplink != b.uplink) return b.uplink;  // downlink first
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.idx < b.idx;
            });
  for (const auto& key : frame_keys_) {
    const auto& record = buffers_[key.shard]->frames_[key.pos];
    for (const auto& sink : frame_sinks_) {
      sink(record.at, record.mh, record.payload, record.uplink, record.phase);
    }
  }
  for (auto* buffer : buffers_) buffer->frames_.clear();

  hook_keys_.clear();
  for (int s = 0; s < static_cast<int>(buffers_.size()); ++s) {
    const auto& records = buffers_[s]->hooks_;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
      const core::EventRecord& r = records[i].record;
      hook_keys_.push_back(
          HookKey{r.at, primary_tag(r), secondary_tag(r), records[i].idx,
                  kReplayRank[static_cast<std::size_t>(r.kind)], s, i});
    }
  }
  std::sort(hook_keys_.begin(), hook_keys_.end(),
            [](const HookKey& a, const HookKey& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.tag != b.tag) return a.tag < b.tag;
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tag2 != b.tag2) return a.tag2 < b.tag2;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.idx < b.idx;
            });
  if (hook_sink_ != nullptr) {
    for (const auto& key : hook_keys_) {
      core::replay(buffers_[key.shard]->hooks_[key.pos].record, *hook_sink_);
    }
  }
  for (auto* buffer : buffers_) buffer->hooks_.clear();

  RDP_PROF_ADD_COUNT(wired_keys_.size() + frame_keys_.size() +
                     hook_keys_.size());
}

}  // namespace rdp::obs
