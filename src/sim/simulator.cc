#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "obs/perf_probe.h"

namespace rdp::sim {
namespace {

// Installs `acc` as the thread's probe accumulator for the enclosing scope
// (no-op when null, and compiled to nothing without RDP_PROFILE).
struct ScopedProfInstall {
#if defined(RDP_PROFILE)
  explicit ScopedProfInstall(obs::prof::Accumulator* acc)
      : swapped(acc != nullptr) {
    if (swapped) prev = obs::prof::exchange_accumulator(acc);
  }
  ~ScopedProfInstall() {
    if (swapped) (void)obs::prof::exchange_accumulator(prev);
  }
  obs::prof::Accumulator* prev = nullptr;
  bool swapped = false;
#else
  explicit ScopedProfInstall(obs::prof::Accumulator*) {}
#endif
  ScopedProfInstall(const ScopedProfInstall&) = delete;
  ScopedProfInstall& operator=(const ScopedProfInstall&) = delete;
};

}  // namespace

bool TimerHandle::pending() const {
  return sim_ != nullptr && sim_->slot_live(slot_, gen_);
}

void TimerHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
}

std::uint32_t Simulator::acquire_slot(Callback cb) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    slots_[slot].cb = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().cb = std::move(cb);
  }
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_live(slot, gen)) return;
  Slot& s = slots_[slot];
  if (s.far_list != kNear) {
    // Far events leave at once: the list's last record fills the hole.
    std::vector<Event>& list =
        s.far_list == kOverflow ? overflow_ : ring_[s.far_list];
    if (s.far_list != kOverflow) --ring_events_;
    const std::uint32_t index = s.next_free;
    list[index] = list.back();
    slots_[list[index].slot].next_free = index;
    list.pop_back();
    if (list.empty() && s.far_list != kOverflow) retire_list(list);
    s.far_list = kNear;
  }
  release_slot(slot);
  --live_pending_;
}

TimerHandle Simulator::schedule(Duration delay, Callback cb,
                                EventPriority priority) {
  RDP_CHECK(delay >= Duration::zero(), "cannot schedule into the past");
  return schedule_at_bounded(now_ + delay, Duration::zero(), std::move(cb),
                             priority);
}

TimerHandle Simulator::schedule_at(SimTime at, Callback cb,
                                   EventPriority priority) {
  return schedule_at_bounded(at, Duration::zero(), std::move(cb), priority);
}

TimerHandle Simulator::schedule_bounded(Duration delay, Duration reaction_bound,
                                        Callback cb, EventPriority priority) {
  RDP_CHECK(delay >= Duration::zero(), "cannot schedule into the past");
  return schedule_at_bounded(now_ + delay, reaction_bound, std::move(cb),
                             priority);
}

TimerHandle Simulator::schedule_at_bounded(SimTime at, Duration reaction_bound,
                                           Callback cb,
                                           EventPriority priority) {
  RDP_CHECK(at >= now_, "cannot schedule into the past");
  RDP_CHECK(static_cast<bool>(cb), "callback must not be empty");
  RDP_PROF_SCOPE(kTimerSlab);
  const std::uint32_t slot = acquire_slot(std::move(cb));
  const std::uint32_t gen = slots_[slot].gen;
  std::int64_t deadline_us = 0;
  if (track_constraints_) {
    const std::int64_t bound_us = reaction_bound.count_micros();
    deadline_us =
        at.count_micros() + (bound_us > 0 ? bound_us : default_bound_us_);
  }
  const Event event{
      at, (static_cast<std::uint64_t>(priority) << 56) | next_seq_++, slot,
      gen, deadline_us};
  ++live_pending_;
  if (bucket_of(at.count_micros()) < horizon_bucket_) {
    push_near(event);
  } else {
    push_far(event);
  }
  return TimerHandle(this, slot, gen);
}

void Simulator::push_far(const Event& event) {
  const std::int64_t bucket = bucket_of(event.at.count_micros());
  std::vector<Event>* list = &overflow_;
  std::uint32_t list_id = kOverflow;
  if (bucket < ring_end_) {
    if (ring_.empty()) ring_.resize(kRingBuckets);
    list_id = static_cast<std::uint32_t>(bucket & (kRingBuckets - 1));
    list = &ring_[list_id];
    ++ring_events_;
  } else {
    overflow_floor_ = std::min(overflow_floor_, bucket);
  }
  if (list->capacity() == 0) *list = take_list();
  Slot& s = slots_[event.slot];
  s.far_list = list_id;
  s.next_free = static_cast<std::uint32_t>(list->size());
  list->push_back(event);
}

std::vector<Simulator::Event> Simulator::take_list() {
  if (spare_lists_.empty()) return {};
  std::vector<Event> list = std::move(spare_lists_.back());
  spare_lists_.pop_back();
  spare_records_ -= list.capacity();
  return list;
}

void Simulator::retire_list(std::vector<Event>& list) {
  if (spare_records_ + list.capacity() > kSpareRecords) {
    std::vector<Event>().swap(list);
    return;
  }
  list.clear();
  spare_records_ += list.capacity();
  spare_lists_.push_back(std::move(list));
}

void Simulator::set_horizon(std::int64_t bucket) {
  horizon_bucket_ = bucket;
  if (ring_end_ - bucket >= kRingBuckets / 2) return;
  ring_end_ = bucket + kRingBuckets;
  if (overflow_floor_ >= ring_end_) return;
  std::vector<Event> still_far = take_list();
  overflow_floor_ = kNoLimit;
  for (const Event& event : overflow_) {
    if (bucket_of(event.at.count_micros()) < ring_end_) {
      push_far(event);
    } else {
      overflow_floor_ =
          std::min(overflow_floor_, bucket_of(event.at.count_micros()));
      slots_[event.slot].next_free =
          static_cast<std::uint32_t>(still_far.size());
      still_far.push_back(event);
    }
  }
  overflow_.swap(still_far);
  retire_list(still_far);
}

bool Simulator::pull_bucket(std::int64_t last) {
  // Charged to the timer slab: a bucket move is the deferred half of the
  // pushes that put its events in the far tier.
  RDP_PROF_SCOPE(kTimerSlab);
  while (horizon_bucket_ <= last) {
    if (ring_events_ == 0) {
      // Everything far is in the overflow list: jump the horizon to its
      // earliest bucket, or past `last`.
      std::int64_t first = kNoLimit;  // none due by `last`
      if (!overflow_.empty() && overflow_floor_ <= last) {
        for (const Event& event : overflow_) {
          first = std::min(first, bucket_of(event.at.count_micros()));
        }
        overflow_floor_ = first;
      }
      if (first == kNoLimit || first > last) {
        if (last != kNoLimit) set_horizon(last + 1);
        return false;
      }
      set_horizon(first);  // brings bucket `first` into the ring
      continue;
    }
    std::vector<Event>& bucket =
        ring_[static_cast<std::size_t>(horizon_bucket_ & (kRingBuckets - 1))];
    const bool moved = !bucket.empty();
    if (moved) {
      ring_events_ -= bucket.size();
      for (const Event& event : bucket) {
        slots_[event.slot].far_list = kNear;
        push_near(event);
      }
      retire_list(bucket);
    }
    set_horizon(horizon_bucket_ + 1);
    if (moved) return true;
  }
  return false;
}

void Simulator::set_reaction_tracking(Duration default_bound) {
  RDP_CHECK(default_bound > Duration::zero(),
            "default reaction bound must be positive");
  RDP_CHECK(live_pending_ == 0,
            "reaction tracking must be enabled before scheduling");
  track_constraints_ = true;
  default_bound_us_ = default_bound.count_micros();
}

std::optional<SimTime> Simulator::next_constraint_time() const {
  if (!track_constraints_) return std::nullopt;
  auto* self = const_cast<Simulator*>(this);
  auto& heap = self->constraints_;
  for (;;) {
    while (!heap.empty() && slots_[heap.top().slot].gen != heap.top().gen) {
      heap.pop();
    }
    // Far events are due at or past the horizon and their bounds are
    // positive: a near minimum at or before the horizon is exact, and
    // otherwise only buckets that start before it can beat it.
    std::int64_t last = kNoLimit;
    if (!heap.empty()) {
      last = bucket_of(heap.top().deadline_us - 1);
      if (last < horizon_bucket_) break;
    }
    if (!self->pull_bucket(last)) break;
  }
  if (heap.empty()) return std::nullopt;
  return SimTime::from_micros(heap.top().deadline_us);
}

bool Simulator::execute_next() {
  // Covers the whole dispatch — queue maintenance and the callback — so
  // kernel self time is the machinery and the protocol work shows up as
  // children.
  RDP_PROF_SCOPE(kKernel);
  if (!settle_near(kNoLimit)) return false;
  const Event event = near_.top();
  near_.pop();
  now_ = event.at;
  // Move the callback out and release the slot *before* invoking, so a
  // callback cancelling its own handle is a harmless no-op and the slot is
  // immediately reusable by anything the callback schedules.
  Callback cb = std::move(slots_[event.slot].cb);
  release_slot(event.slot);
  --live_pending_;
  ++executed_;
  cb();
  return true;
}

bool Simulator::step() {
  const ScopedProfInstall prof(prof_acc_);
  return execute_next();
}

void Simulator::run() {
  const ScopedProfInstall prof(prof_acc_);
  stopped_ = false;
  while (!stopped_ && execute_next()) {
  }
}

std::size_t Simulator::run_until(SimTime until) {
  RDP_CHECK(until >= now_, "cannot run into the past");
  const ScopedProfInstall prof(prof_acc_);
  stopped_ = false;
  std::size_t count = 0;
  const std::int64_t last = bucket_of(until.count_micros());
  while (!stopped_) {
    if (!settle_near(last) || near_.top().at > until) break;
    if (execute_next()) ++count;
  }
  if (!stopped_ && now_ < until) now_ = until;
  return count;
}

std::optional<SimTime> Simulator::next_event_time() const {
  // Purging tombstones and moving buckets mutate only bookkeeping, never
  // observable state, so this (like next_constraint_time) stays const to
  // callers.
  auto* self = const_cast<Simulator*>(this);
  if (!self->settle_near(kNoLimit)) return std::nullopt;
  return near_.top().at;
}

}  // namespace rdp::sim
