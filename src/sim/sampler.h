// Drives an obs::Timeline from the discrete-event loop.
//
// obs:: cannot see sim:: (layering), so the Timeline itself never
// schedules anything; this sampler owns a recurring EventQueue event
// that fires every timeline window (default 10 ms virtual) and feeds
// the timeline the current (now_ns, category-ledger) pair.
//
// Two properties worth spelling out:
//
//  - Sampler edges never perturb event timing, and they leave the
//    ledger split alone.  An edge is a zero-duration handler scheduled
//    at a timestamp at or before the next real event, so every
//    completion, delivery and timer still fires at exactly the virtual
//    time it would have without the sampler — committed BENCH baselines
//    keep their real_time_s.  The part of a gap an edge bridges is
//    charged as the live event whose gap it splits would charge it
//    (GapAttribution::SplitNext), so link and server time stay link and
//    server time; only a gap with no live event behind it is idle
//    (kWait).  The split is exact whenever a handler completion's gap
//    equals its measured service time, as in every stop-and-wait
//    exchange; where other events already cut that gap, proportional
//    rounding may move a nanosecond between categories.
//
//  - When the clock jumps past several edges in one Advance() (e.g. a
//    workload's application-CPU phase), the pending edge dispatches
//    late with no clock advance, and the timeline closes one variable-
//    length catch-up window covering the whole gap.  Windows therefore
//    stay contiguous even across jumps.
#ifndef SFS_SRC_SIM_SAMPLER_H_
#define SFS_SRC_SIM_SAMPLER_H_

#include "src/obs/timeline.h"
#include "src/sim/event.h"

namespace sim {

class TimelineSampler {
 public:
  // Neither pointer is owned; both must outlive the sampler.
  TimelineSampler(Clock* clock, obs::Timeline* timeline)
      : clock_(clock), timeline_(timeline) {}
  ~TimelineSampler() { Stop(); }
  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  // Pins the timeline origin at the current virtual time and schedules
  // the first window edge.
  void Start() {
    if (armed_ || timeline_ == nullptr) {
      return;
    }
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->Start(clock_->now_ns(), cats.ns);
    armed_ = true;
    ScheduleNext();
  }

  // Cancels the pending edge without closing the trailing window.
  void Stop() {
    if (pending_ != EventQueue::kInvalidId) {
      clock_->events()->Cancel(pending_);
      pending_ = EventQueue::kInvalidId;
    }
    armed_ = false;
  }

  // Closes the final (partial) window at the current virtual time, runs
  // the episode annotator, and disarms.
  void Finalize() {
    Stop();
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->Finalize(clock_->now_ns(), cats.ns);
  }

  bool armed() const { return armed_; }

  // Number of queue entries that are the sampler's own (0 or 1): lets
  // run loops distinguish "only the sampler is left" from real pending
  // work when checking for deadlock.
  size_t live_events() const {
    return pending_ != EventQueue::kInvalidId ? 1 : 0;
  }

 private:
  void OnEdge() {
    pending_ = EventQueue::kInvalidId;
    const Clock::CategorySnapshot cats = clock_->categories();
    timeline_->CloseWindow(clock_->now_ns(), cats.ns);
    if (armed_) {
      ScheduleNext();
    }
  }

  void ScheduleNext() {
    pending_ = clock_->events()->Schedule(clock_->now_ns() + timeline_->window_ns(),
                                          GapAttribution::SplitNext(),
                                          [this] { OnEdge(); });
  }

  Clock* clock_;
  obs::Timeline* timeline_;
  EventQueue::EventId pending_ = EventQueue::kInvalidId;
  bool armed_ = false;
};

}  // namespace sim

#endif  // SFS_SRC_SIM_SAMPLER_H_
