// Bounded ring buffer of recent protocol events ("flight recorder").
//
// Keeps the last N events of the observer stream so that, when something
// goes wrong late in a long run — a test failure, an invariant violation,
// an on_request_lost — the investigation starts with the tail of protocol
// history instead of a bare counter.  Events are kept as typed records and
// formatted only by dump(), so recording one never allocates.  The fault
// subsystem also records its injected faults and wire-level drop decisions
// here as free-text notes (fault::FaultInjector), which plain
// RdpObserver hooks never see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/event_record.h"

namespace rdp::obs {

// The recorder's text for one event (no timestamp): the line dump()
// prints after the time column.
[[nodiscard]] std::string format(const core::EventRecord& record);

class FlightRecorder final : public core::EventRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 512);

  // Append one free-text note; oldest entries are overwritten once full.
  // Public so non-observer subsystems (fault injection, benches) can add
  // context.
  void record(common::SimTime at, std::string line);

  // Write the retained tail, oldest first.  Events are formatted here, not
  // when they are recorded.
  void dump(std::ostream& os) const;

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  // Entries currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  // Entries ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  void clear();

  // When set, an on_request_lost event dumps the tail to the stream (one
  // dump per recorder; reset with clear()).  Off by default because some
  // experiments lose requests by design at scale.
  void dump_on_loss(std::ostream* os) { loss_sink_ = os; }

  // --- RdpObserver ---------------------------------------------------------
  // Every hook except the two per-frame ARQ hooks, which would flood the
  // ring.
  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return kAllHooks &
           ~(hook_bit(Hook::kArqFrameSent) | hook_bit(Hook::kArqDelivered));
  }
  void on_event(const core::EventRecord& record) override;

 private:
  // One ring slot: an observer event, or a free-text note stamped with
  // event.at.
  struct Entry {
    core::EventRecord event;
    bool is_note = false;
    std::string note;
  };

  // The slot the next entry lands in (overwriting the oldest once full).
  Entry& next_slot();

  std::vector<Entry> ring_;  // sized to the capacity up front
  std::size_t next_ = 0;     // slot the next entry lands in
  std::uint64_t total_ = 0;
  std::ostream* loss_sink_ = nullptr;
  bool loss_dumped_ = false;
};

}  // namespace rdp::obs
