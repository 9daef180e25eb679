#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace planet {

Simulator::Simulator()
    : now_(0),
      next_seq_(1),
      events_processed_(0),
      live_count_(0),
      stale_(0),
      num_slots_(0) {}

uint32_t Simulator::PrepareSlot(SimTime when) {
  PLANET_DCHECK_OWNED(thread_checker_);
  PLANET_CHECK_MSG(when >= now_, "when=" << when << " now=" << now_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    PLANET_CHECK(num_slots_ < kMaxSlots);
    slot = static_cast<uint32_t>(num_slots_++);
    if ((slot >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSize));
    }
  }
  EventSlot& s = SlotAt(slot);
  uint64_t seq = next_seq_++;
  PLANET_CHECK(seq < kMaxSeq);
  s.seq = seq;
  ++s.generation;
  s.guard = nullptr;
  HeapPush(HeapEntry{when, seq << kSlotBits | slot});
  ++live_count_;
  return slot;
}

bool Simulator::Cancel(EventId id) {
  PLANET_DCHECK_OWNED(thread_checker_);
  uint64_t hi = id >> 32;
  if (hi == 0 || hi > num_slots_) return false;
  uint32_t slot = static_cast<uint32_t>(hi - 1);
  EventSlot& s = SlotAt(slot);
  // Only live (scheduled, not yet fired) events can be cancelled; the
  // generation check rejects handles whose slot has been recycled.
  if (s.seq == 0 || s.generation != static_cast<uint32_t>(id)) return false;
  s.seq = 0;  // tombstone: the heap entry is now stale
  s.guard = nullptr;
  s.fn.Reset();  // captured state dies now, not at the deadline
  free_slots_.push_back(slot);
  --live_count_;
  ++stale_;
  CompactIfStale();
  return true;
}

bool Simulator::Step() {
  PLANET_DCHECK_OWNED(thread_checker_);
  while (!heap_.empty()) {
    HeapEntry top = heap_[0];
    HeapPopRoot();
    EventSlot& s = SlotAt(top.slot());
    if (s.seq != top.seq()) {  // cancelled: tombstone, skip
      --stale_;
      continue;
    }
    PLANET_CHECK(top.time >= now_);
    now_ = top.time;
    ++events_processed_;
    // Mark the slot fired before invoking, so a handler cancelling its own
    // id sees "already fired" (Cancel returns false). The closure runs in
    // place — chunked storage means its bytes can't move even if it
    // schedules new events — and the slot only joins the free list after it
    // returns, so it can't be reused while executing.
    bool run = s.guard == nullptr || *s.guard == s.guard_expected;
    s.seq = 0;
    s.guard = nullptr;
    --live_count_;
    if (run) s.fn();
    s.fn.Reset();  // captured state dies with the event
    free_slots_.push_back(top.slot());
    return true;
  }
  return false;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  PLANET_CHECK(t >= now_);
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    if (SlotAt(top.slot()).seq != top.seq()) {  // cancelled
      HeapPopRoot();
      --stale_;
      continue;
    }
    if (top.time > t) break;
    Step();
  }
  now_ = t;
}

void Simulator::HeapPush(HeapEntry e) {
  heap_.push_back(e);  // grows the array; e's final position is found below
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];  // lift the hole instead of swapping
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::HeapPopRoot() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  size_t i = 0;
  size_t n = heap_.size();
  for (;;) {
    size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Simulator::SiftDown(size_t i) {
  HeapEntry value = heap_[i];
  size_t n = heap_.size();
  for (;;) {
    size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], value)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = value;
}

void Simulator::CompactIfStale() {
  // Amortized: only rebuild once tombstones dominate, so cancel-heavy churn
  // (resolve timers) keeps the heap at O(live) instead of O(scheduled).
  if (stale_ <= 64 || stale_ <= heap_.size() / 2) return;
  size_t out = 0;
  for (const HeapEntry& e : heap_) {
    if (SlotAt(e.slot()).seq == e.seq()) heap_[out++] = e;
  }
  heap_.resize(out);
  stale_ = 0;
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
}

void Simulator::InstallLogTimeSource() {
  logging::SetTimeSource([this] { return now_; });
}

}  // namespace planet
