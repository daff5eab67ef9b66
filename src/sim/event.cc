#include "src/sim/event.h"

#include <algorithm>

namespace sim {

GapAttribution GapAttribution::Proportional(const Clock::CategorySnapshot& breakdown) {
  GapAttribution a;
  a.breakdown = breakdown;
  for (uint64_t ns : breakdown.ns) {
    a.breakdown_total += ns;
  }
  if (a.breakdown_total == 0) {
    // A zero-cost handler: the gap (if any) is pure scheduling artifact;
    // charge it as untracked rather than inventing a category.
    a.category = obs::TimeCategory::kUntracked;
  }
  return a;
}

void EventQueue::PushHeap(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void EventQueue::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

EventQueue::EventId EventQueue::Schedule(uint64_t at_ns, GapAttribution attr,
                                         std::function<void()> fn) {
  const EventId id = next_id_++;
  at_ns = std::max(at_ns, clock_->now_ns());
  pending_.emplace(id, Pending{std::move(attr), std::move(fn)});
  PushHeap(Entry{at_ns, id});
  ++live_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // The heap entry stays (lazily discarded on pop); only the payload map
  // decides liveness.
  if (pending_.erase(id) == 0) {
    return false;
  }
  --live_;
  ++cancelled_;
  return true;
}

uint64_t EventQueue::next_time_ns() {
  while (!heap_.empty() && pending_.find(heap_.front().id) == pending_.end()) {
    PopHeap();  // Cancelled: discard without advancing time.
  }
  return heap_.empty() ? UINT64_MAX : heap_.front().at_ns;
}

void EventQueue::ChargeGap(uint64_t gap, GapAttribution* attr) {
  if (attr->breakdown_total == 0) {
    clock_->Advance(gap, attr->category);
    return;
  }
  // Split the gap proportionally to the measured breakdown, exact to the
  // nanosecond: rounding remainders land on the heaviest category (then,
  // if a drawn-down breakdown has no room left there, on any category
  // with room) so the charges sum to the gap and the ledger invariant
  // (categories sum to now_ns) survives every dispatch.
  uint64_t charges[obs::kTimeCategoryCount] = {};
  uint64_t charged = 0;
  size_t heaviest = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    if (attr->breakdown.ns[i] > attr->breakdown.ns[heaviest]) {
      heaviest = i;
    }
    charges[i] = static_cast<uint64_t>(static_cast<unsigned __int128>(gap) *
                                       attr->breakdown.ns[i] / attr->breakdown_total);
    charged += charges[i];
  }
  uint64_t remainder = gap - charged;
  auto give = [&](size_t i) {
    const uint64_t room =
        attr->breakdown.ns[i] > charges[i] ? attr->breakdown.ns[i] - charges[i] : 0;
    const uint64_t n = std::min(remainder, room);
    charges[i] += n;
    remainder -= n;
  };
  give(heaviest);
  for (size_t i = 0; i < obs::kTimeCategoryCount && remainder != 0; ++i) {
    give(i);
  }
  charges[heaviest] += remainder;  // A gap longer than the breakdown.
  uint64_t left = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    if (charges[i] != 0) {
      clock_->Advance(charges[i], static_cast<obs::TimeCategory>(i));
    }
    attr->breakdown.ns[i] -= std::min(charges[i], attr->breakdown.ns[i]);
    left += attr->breakdown.ns[i];
  }
  if (left == 0) {
    // Drawn down completely: any further gap goes to the dominant
    // category.
    attr->category = static_cast<obs::TimeCategory>(heaviest);
  }
  attr->breakdown_total = left;
}

void EventQueue::AdvanceTo(uint64_t at_ns) {
  const uint64_t now = clock_->now_ns();
  if (at_ns <= now) {
    return;
  }
  // The first live event that is not itself a split observer: set the
  // (few) observers ahead of it aside, then put them back.
  std::vector<Entry> observers;
  GapAttribution* next = nullptr;
  while (next_time_ns() != UINT64_MAX) {
    GapAttribution& attr = pending_.at(heap_.front().id).attr;
    if (!attr.split_next) {
      next = &attr;
      break;
    }
    observers.push_back(heap_.front());
    PopHeap();
  }
  for (const Entry& entry : observers) {
    PushHeap(entry);
  }
  if (next != nullptr) {
    ChargeGap(at_ns - now, next);
  } else {
    clock_->Advance(at_ns - now, obs::TimeCategory::kWait);
  }
}

bool EventQueue::RunOne() {
  if (next_time_ns() == UINT64_MAX) {
    return false;
  }
  const Entry entry = heap_.front();
  PopHeap();
  auto it = pending_.find(entry.id);
  Pending pending = std::move(it->second);
  pending_.erase(it);
  --live_;
  ++dispatched_;

  const uint64_t now = clock_->now_ns();
  if (entry.at_ns > now) {
    if (pending.attr.split_next) {
      AdvanceTo(entry.at_ns);
    } else {
      ChargeGap(entry.at_ns - now, &pending.attr);
    }
  }
  pending.fn();
  return true;
}

}  // namespace sim
