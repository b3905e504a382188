// Fires every RdpObserver hook exactly once, in declaration order, with a
// distinct non-default value in every argument, so a test that compares
// what an observer saw against what was fired notices swapped or dropped
// fields.  `variant` 1 shifts every value and flips every flag and the loss
// reason, so a flag that is always stored as one constant shows up in one
// of the two variants.  Keep in sync with core/events.h: a new hook must be
// added here.
#pragma once

#include <cstdint>

#include "core/events.h"

namespace rdp::testutil {

inline void fire_every_hook(core::RdpObserver& target, int variant = 0) {
  using common::Duration;
  using common::MhId;
  using common::MssId;
  using common::NodeAddress;
  using common::ProxyId;
  using common::RequestId;
  using common::SimTime;

  const bool flip = variant != 0;
  const std::uint32_t b = flip ? 1000 : 0;  // shifts every value below
  auto at = [&](std::int64_t ms) {
    return SimTime::from_micros((ms + b) * 1000 + 7);
  };
  auto mh = [&](std::uint32_t v) { return MhId(v + b); };
  auto mss = [&](std::uint32_t v) { return MssId(v + b); };
  auto node = [&](std::uint32_t v) { return NodeAddress(v + b); };
  auto proxy = [&](std::uint32_t v) { return ProxyId(v + b); };
  auto req = [&](std::uint32_t owner, std::uint32_t seq) {
    return RequestId(MhId(owner + b), seq + b);
  };
  auto us = [&](std::int64_t v) { return Duration::micros(v + b); };
  const auto reason = flip ? core::RequestLossReason::kReissueExhausted
                           : core::RequestLossReason::kMssCrashed;

  target.on_proxy_created(at(1), mh(10), node(11), proxy(12));
  target.on_proxy_deleted(at(2), mh(13), node(14), proxy(15), !flip);
  target.on_request_issued(at(3), mh(16), req(17, 18), node(19));
  target.on_request_reached_proxy(at(4), mh(20), req(21, 22), node(23));
  target.on_result_at_proxy(at(5), mh(24), req(25, 26), 27 + b);
  target.on_result_forwarded(at(6), mh(28), req(29, 30), 31 + b, node(32),
                             33 + b, !flip);
  target.on_result_delivered(at(7), mh(34), req(35, 36), 37 + b, !flip, flip,
                             38 + b);
  target.on_ack_forwarded(at(8), mh(39), req(40, 41), 42 + b, !flip);
  target.on_request_completed(at(9), mh(43), req(44, 45));
  target.on_reissue_exhausted(at(10), mh(46), req(47, 48),
                              static_cast<int>(49 + b));
  target.on_request_lost(at(11), mh(50), req(51, 52), reason);
  target.on_arq_frame_sent(at(12), mh(53), 54 + b, 55 + b, 56 + b, 57 + b,
                           58 + b);
  target.on_arq_delivered(at(13), mh(59), 60 + b, 61 + b, !flip);
  target.on_handoff_started(at(14), mh(62), mss(63), mss(64));
  target.on_handoff_completed(at(15), mh(65), mss(66), mss(67), us(1680),
                              69 + b);
  target.on_update_currentloc(at(16), mh(70), node(71), node(72));
  target.on_mh_registered(at(17), mh(73), mss(74), us(2750));
  target.on_stale_ack_dropped(at(18), mh(76), req(77, 78));
  target.on_delproxy_with_pending(at(19), mh(79), proxy(80));
  target.on_orphaned_proxy(at(20), mh(81), proxy(82));
  target.on_mss_crashed(at(21), mss(83), 84 + b, 85 + b);
  target.on_mss_restarted(at(22), mss(86), 87 + b);
  target.on_proxy_restored(at(23), mh(88), node(89), proxy(90));
  target.on_request_reissued(at(24), mh(91), req(92, 93),
                             static_cast<int>(94 + b));
  target.on_backup_promoted(at(25), mss(95), mss(96), 97 + b);
  target.on_mss_departed(at(26), mss(98), 0x1'0000'0000ull + 99 + b);
  target.on_mss_rejoined(at(27), mss(100), 0x1'0000'0000ull + 101 + b);
  target.on_primary_demoted(at(28), mss(102), 103 + b);
}

}  // namespace rdp::testutil
