// Discrete-event core for the simulation.
//
// One EventQueue per timeline (owned by the sim::Clock) holds every
// scheduled future occurrence — message arrivals at a host, handler
// completions, reply deliveries, retransmission timers — as (virtual
// time, monotonic seq) keyed entries in a binary heap.  Links, hosts,
// disks and timers are all just event sources; nothing executes "inside"
// a submit call anymore (see DESIGN.md §"Discrete-event substitution"
// for how this replaced the inline-Handle-plus-watermark model).
//
// Ledger discipline: the loop is the only place virtual time advances
// between events.  Each event carries an attribution for the gap the
// loop bridges to reach it — either a single obs::TimeCategory (wire
// transit, timer wait) or a proportional per-category breakdown (a
// handler completion, whose service time was measured in a clock frame;
// see Clock::BeginMeasureFrame).  Because every bridged nanosecond is
// charged exactly once, the clock's per-category totals still sum to
// now_ns() no matter how many overlapping conversations share the
// timeline.
//
// Determinism: events with equal timestamps dispatch in schedule order
// (the seq tiebreak), so runs are bit-reproducible regardless of heap
// internals.  Cancellation (timers that no longer matter) marks the
// entry dead; dead entries are discarded on pop without advancing the
// clock or charging anything.
#ifndef SFS_SRC_SIM_EVENT_H_
#define SFS_SRC_SIM_EVENT_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/clock.h"

namespace sim {

// How the event loop charges the virtual-time gap it bridges when
// advancing to an event's timestamp.
struct GapAttribution {
  // Single-category form (breakdown_total == 0).
  obs::TimeCategory category = obs::TimeCategory::kWait;
  // Proportional form: the gap is split across `breakdown` in proportion
  // to its weights (a measured service frame); rounding remainders go to
  // the heaviest category so the charges sum exactly to the gap.
  Clock::CategorySnapshot breakdown;
  uint64_t breakdown_total = 0;

  // Split form: the event is a zero-duration observer (a timeline edge,
  // a retransmission timer) landing inside another event's gap.  The
  // part of the gap it bridges is charged as the next live event would
  // charge it (see EventQueue::AdvanceTo), so a timer never turns link
  // or server time into wait; with no live event left the gap is idle
  // (kWait).
  bool split_next = false;

  static GapAttribution Category(obs::TimeCategory category) {
    GapAttribution a;
    a.category = category;
    return a;
  }
  static GapAttribution Proportional(const Clock::CategorySnapshot& breakdown);
  static GapAttribution SplitNext() {
    GapAttribution a;
    a.split_next = true;
    return a;
  }
};

class EventQueue {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidId = 0;

  explicit EventQueue(Clock* clock) : clock_(clock) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at `at_ns` (clamped forward to now: the past
  // cannot be scheduled).  The gap from the previous event to this one
  // is charged per `attr` when the loop reaches it.
  EventId Schedule(uint64_t at_ns, GapAttribution attr, std::function<void()> fn);
  EventId Schedule(uint64_t at_ns, obs::TimeCategory category, std::function<void()> fn) {
    return Schedule(at_ns, GapAttribution::Category(category), std::move(fn));
  }

  // Cancels a scheduled event.  Returns true if it had not yet run (or
  // been cancelled); a cancelled event is skipped on pop with no clock
  // advance and no charge.
  bool Cancel(EventId id);

  // True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Timestamp of the earliest live event; UINT64_MAX when empty.
  uint64_t next_time_ns();

  // Dispatches the earliest live event: advances the clock to its
  // timestamp (charging the gap per its attribution), then runs it.
  // Returns false when the queue is empty.  The dispatched function may
  // schedule further events; it must not call RunOne reentrantly.
  bool RunOne();

  // Advances the clock to `at_ns`, which must not lie beyond the next
  // live event, charging the bridged gap as the next live event that is
  // not itself a split observer would charge it, or kWait (idle) if none
  // is left.  A proportional breakdown is drawn down by what was
  // charged, so splitting a gap leaves the ledger as it was: exactly,
  // whenever the split event's gap equals its measured breakdown (a
  // stop-and-wait service gap).  Callers that wait with a deadline (a
  // retransmission timer) use this instead of Clock::Advance.
  void AdvanceTo(uint64_t at_ns);

  // Drains every event with timestamp <= until_ns.
  void RunUntil(uint64_t until_ns) {
    while (!empty() && next_time_ns() <= until_ns) {
      RunOne();
    }
  }

  Clock* clock() const { return clock_; }

  // Lifetime totals, exposed for tests.
  uint64_t dispatched() const { return dispatched_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  struct Entry {
    uint64_t at_ns = 0;
    EventId id = kInvalidId;
    // Min-heap on (at_ns, id): ids are monotonic, so equal timestamps
    // dispatch in schedule order.
    bool operator>(const Entry& other) const {
      return at_ns != other.at_ns ? at_ns > other.at_ns : id > other.id;
    }
  };
  struct Pending {
    GapAttribution attr;
    std::function<void()> fn;
  };

  void PopHeap();
  void PushHeap(Entry entry);
  // Advances the clock by `gap` charged per `attr`; a proportional
  // breakdown is drawn down by the charges (see AdvanceTo).
  void ChargeGap(uint64_t gap, GapAttribution* attr);

  Clock* clock_;
  std::vector<Entry> heap_;
  std::unordered_map<EventId, Pending> pending_;  // Live (uncancelled) events.
  EventId next_id_ = 1;
  size_t live_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace sim

#endif  // SFS_SRC_SIM_EVENT_H_
