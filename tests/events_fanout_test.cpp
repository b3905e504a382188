// ObserverList fan-out exhaustiveness and the EventRecord conversions.
//
// Fires every RdpObserver hook exactly once through an ObserverList with
// two recording observers and checks (a) each observer saw each hook once,
// and (b) the number of distinct hooks equals RdpObserver::kHookCount; then
// checks that every hook survives hook -> EventRecorder -> replay() with
// all of its arguments.  Adding a hook without bumping the constant,
// without the fan-out override, without its record conversions, or without
// extending the driver (tests/hook_driver.h) fails here.
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_record.h"
#include "obs/event_names.h"
#include "tests/hook_driver.h"

namespace rdp::core {
namespace {

using common::Duration;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;
using common::SimTime;

// Counts each hook by name, through the one-method record interface.
class RecordingObserver final : public EventRecorder {
 public:
  explicit RecordingObserver(std::uint32_t mask = kAllHooks) : mask_(mask) {}

  std::map<std::string, int> calls;

  [[nodiscard]] std::uint32_t hook_mask() const override { return mask_; }
  void on_event(const EventRecord& record) override {
    ++calls[obs::hook_name(static_cast<std::size_t>(record.kind))];
  }

 private:
  std::uint32_t mask_;
};

// Writes every hook call as "<hook name>(<every argument>)", typed by the
// hook signature itself rather than by EventRecord, so comparing two
// captures tells whether a record carried every field of its hook.
class ArgumentLog final : public RdpObserver {
 public:
  std::vector<std::string> lines;

  using U32 = std::uint32_t;
  using Size = std::size_t;
  void on_proxy_created(SimTime t, MhId m, NodeAddress h, ProxyId p) override {
    add("proxy_created", t, m, h, p);
  }
  void on_proxy_deleted(SimTime t, MhId m, NodeAddress h, ProxyId p,
                        bool gc) override {
    add("proxy_deleted", t, m, h, p, gc);
  }
  void on_request_issued(SimTime t, MhId m, RequestId r,
                         NodeAddress s) override {
    add("request_issued", t, m, r, s);
  }
  void on_request_reached_proxy(SimTime t, MhId m, RequestId r,
                                NodeAddress h) override {
    add("request_reached_proxy", t, m, r, h);
  }
  void on_result_at_proxy(SimTime t, MhId m, RequestId r, U32 seq) override {
    add("result_at_proxy", t, m, r, seq);
  }
  void on_result_forwarded(SimTime t, MhId m, RequestId r, U32 seq,
                           NodeAddress to, U32 n, bool pref) override {
    add("result_forwarded", t, m, r, seq, to, n, pref);
  }
  void on_result_delivered(SimTime t, MhId m, RequestId r, U32 seq, bool fin,
                           bool dup, U32 n) override {
    add("result_delivered", t, m, r, seq, fin, dup, n);
  }
  void on_ack_forwarded(SimTime t, MhId m, RequestId r, U32 seq,
                        bool del) override {
    add("ack_forwarded", t, m, r, seq, del);
  }
  void on_request_completed(SimTime t, MhId m, RequestId r) override {
    add("request_completed", t, m, r);
  }
  void on_reissue_exhausted(SimTime t, MhId m, RequestId r, int n) override {
    add("reissue_exhausted", t, m, r, n);
  }
  void on_request_lost(SimTime t, MhId m, RequestId r,
                       RequestLossReason why) override {
    add("request_lost", t, m, r, obs::loss_reason_name(why));
  }
  void on_arq_frame_sent(SimTime t, MhId m, U32 epoch, U32 seq, U32 n,
                         Size in_flight, Size window) override {
    add("arq_frame_sent", t, m, epoch, seq, n, in_flight, window);
  }
  void on_arq_delivered(SimTime t, MhId m, U32 epoch, U32 seq,
                        bool dup) override {
    add("arq_delivered", t, m, epoch, seq, dup);
  }
  void on_handoff_started(SimTime t, MhId m, MssId from, MssId to) override {
    add("handoff_started", t, m, from, to);
  }
  void on_handoff_completed(SimTime t, MhId m, MssId from, MssId to,
                            Duration d, Size bytes) override {
    add("handoff_completed", t, m, from, to, d.count_micros(), bytes);
  }
  void on_update_currentloc(SimTime t, MhId m, NodeAddress h,
                            NodeAddress loc) override {
    add("update_currentloc", t, m, h, loc);
  }
  void on_mh_registered(SimTime t, MhId m, MssId s, Duration d) override {
    add("mh_registered", t, m, s, d.count_micros());
  }
  void on_stale_ack_dropped(SimTime t, MhId m, RequestId r) override {
    add("stale_ack_dropped", t, m, r);
  }
  void on_delproxy_with_pending(SimTime t, MhId m, ProxyId p) override {
    add("delproxy_with_pending", t, m, p);
  }
  void on_orphaned_proxy(SimTime t, MhId m, ProxyId p) override {
    add("orphaned_proxy", t, m, p);
  }
  void on_mss_crashed(SimTime t, MssId s, Size proxies, Size mhs) override {
    add("mss_crashed", t, s, proxies, mhs);
  }
  void on_mss_restarted(SimTime t, MssId s, Size restored) override {
    add("mss_restarted", t, s, restored);
  }
  void on_proxy_restored(SimTime t, MhId m, NodeAddress h,
                         ProxyId p) override {
    add("proxy_restored", t, m, h, p);
  }
  void on_request_reissued(SimTime t, MhId m, RequestId r, int n) override {
    add("request_reissued", t, m, r, n);
  }
  void on_backup_promoted(SimTime t, MssId from, MssId to, Size n) override {
    add("backup_promoted", t, from, to, n);
  }
  void on_mss_departed(SimTime t, MssId s, std::uint64_t epoch) override {
    add("mss_departed", t, s, epoch);
  }
  void on_mss_rejoined(SimTime t, MssId s, std::uint64_t epoch) override {
    add("mss_rejoined", t, s, epoch);
  }
  void on_primary_demoted(SimTime t, MssId s, Size dropped) override {
    add("primary_demoted", t, s, dropped);
  }

 private:
  template <typename... Args>
  void add(const char* hook, SimTime t, const Args&... args) {
    std::ostringstream os;
    os << hook << "(" << t.count_micros();
    ((os << ", " << args), ...);
    os << ")";
    lines.push_back(os.str());
  }
};

// Collects the records an EventRecorder makes.
class RecordCollector final : public EventRecorder {
 public:
  std::vector<EventRecord> records;
  void on_event(const EventRecord& record) override {
    records.push_back(record);
  }
};

// The recorder itself covers the whole interface: the driver above reaches
// kHookCount distinct hooks.  (This pins the constant to reality — if a
// hook is added to RdpObserver, kHookCount changes and this fails until
// the driver and recorder learn the new hook.)
TEST(ObserverFanout, DriverCoversEveryHook) {
  RecordingObserver recorder;
  testutil::fire_every_hook(recorder);
  EXPECT_EQ(recorder.calls.size(),
            static_cast<std::size_t>(RdpObserver::kHookCount));
  for (const auto& [hook, count] : recorder.calls) {
    EXPECT_EQ(count, 1) << "hook " << hook << " fired " << count << " times";
  }
}

// Every hook fans out through ObserverList to every registered observer.
TEST(ObserverFanout, ListForwardsEveryHookToAllObservers) {
  ObserverList list;
  RecordingObserver first, second;
  list.add(&first);
  list.add(&second);
  EXPECT_EQ(list.size(), 2u);

  testutil::fire_every_hook(list);

  for (const RecordingObserver* observer : {&first, &second}) {
    EXPECT_EQ(observer->calls.size(),
              static_cast<std::size_t>(RdpObserver::kHookCount));
    for (const auto& [hook, count] : observer->calls) {
      EXPECT_EQ(count, 1) << "hook " << hook << " fan-out count " << count;
    }
  }
}

// The obs::kHookNames table (already pinned to kHookCount by its
// static_assert) must agree with reality name-for-name: every hook the
// driver fires appears in the table, all entries distinct.  This catches
// the rename/reorder drift the count alone cannot.
TEST(ObserverFanout, HookNameTableMatchesHooks) {
  RecordingObserver recorder;
  testutil::fire_every_hook(recorder);

  std::set<std::string> named(std::begin(obs::kHookNames),
                              std::end(obs::kHookNames));
  ASSERT_EQ(named.size(), std::size(obs::kHookNames)) << "duplicate names";
  for (const auto& [hook, count] : recorder.calls) {
    EXPECT_TRUE(named.count(hook) == 1)
        << "hook '" << hook << "' missing from obs::kHookNames";
  }
  EXPECT_EQ(named.size(), recorder.calls.size());
  EXPECT_STREQ(obs::hook_name(0), "proxy_created");
  EXPECT_STREQ(obs::hook_name(std::size(obs::kHookNames)), "?");
}

// hook -> EventRecorder -> replay() gives back the same call: every
// argument of every hook survives the record, in both driver variants
// (distinct values everywhere; every flag seen both ways).  The record's
// kind also names the hook it came from.
TEST(ObserverFanout, RecordReplayRoundTripsEveryArgument) {
  for (int variant = 0; variant < 2; ++variant) {
    ArgumentLog fired;
    testutil::fire_every_hook(fired, variant);

    RecordCollector collector;
    testutil::fire_every_hook(collector, variant);
    ASSERT_EQ(collector.records.size(),
              static_cast<std::size_t>(RdpObserver::kHookCount));

    ArgumentLog replayed;
    for (const EventRecord& record : collector.records) {
      replay(record, replayed);
    }
    ASSERT_EQ(replayed.lines.size(), fired.lines.size());
    for (std::size_t i = 0; i < fired.lines.size(); ++i) {
      EXPECT_EQ(replayed.lines[i], fired.lines[i]) << "variant " << variant;
      const std::string name =
          obs::hook_name(static_cast<std::size_t>(collector.records[i].kind));
      EXPECT_EQ(fired.lines[i].substr(0, fired.lines[i].find('(')), name);
    }
  }
}

// ObserverList routes each hook to exactly the observers whose mask has
// that hook's bit: pins the list's per-hook indices to core::Hook.
TEST(ObserverFanout, ListRoutesEachHookByItsMaskBit) {
  for (int h = 0; h < RdpObserver::kHookCount; ++h) {
    ObserverList list;
    RecordingObserver only(1u << h);
    list.add(&only);
    testutil::fire_every_hook(list);
    ASSERT_EQ(only.calls.size(), 1u) << "hook " << h;
    EXPECT_EQ(only.calls.begin()->first,
              obs::hook_name(static_cast<std::size_t>(h)));
    EXPECT_EQ(only.calls.begin()->second, 1);
  }
}

// An empty list is a valid no-op sink.
TEST(ObserverFanout, EmptyListIsSafe) {
  ObserverList list;
  EXPECT_EQ(list.size(), 0u);
  testutil::fire_every_hook(list);  // must not crash
}

}  // namespace
}  // namespace rdp::core
