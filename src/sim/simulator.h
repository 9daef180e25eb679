// Deterministic single-threaded discrete-event simulator.
//
// All PLANET experiments run on simulated time: events are executed in
// (time, insertion-sequence) order, so two runs with the same seed produce
// bit-identical histories. This is the substitution for the paper's
// five-data-center EC2 deployment: the protocol stack runs unmodified on top
// of the simulated network, and wide-area latency is injected per DC pair.
//
// Hot-path design (see docs/PERFORMANCE.md): events are InlineFunction
// closures stored in a slot pool — steady-state Schedule/Cancel/Step touch
// no heap. The ready queue is a 4-ary min-heap of (time, seq, slot) entries
// ordered by (time, seq); Cancel is an O(1) tombstone (the slot's seq is
// zeroed and its closure destroyed immediately, so cancelled events release
// their captured state right away instead of at their deadline). Stale heap
// entries are skipped at pop and compacted away when they outnumber the
// live ones.
#ifndef PLANET_SIM_SIMULATOR_H_
#define PLANET_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"
#include "common/thread_checker.h"
#include "common/types.h"

namespace planet {

/// Handle used to cancel a scheduled event. Encodes (slot+1, generation);
/// stale handles from fired or cancelled events are recognized and rejected.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// The event loop. Not thread safe (by design: determinism); enforced in
/// PLANET_THREAD_CHECKS builds — scheduling or running from a second thread
/// aborts with a single-owner violation instead of racing silently.
class Simulator {
 public:
  /// Event closure type. The inline budget covers every closure the
  /// protocol stack schedules today — including Network::Send's delivery
  /// event, which wraps the caller's closure in 16 bytes of routing state.
  /// Bigger captures silently heap-allocate; the allocation tests in
  /// tests/sim/hot_path_test.cc pin the budget via
  /// InlineFunctionHeapFallbacks().
  using EventFn = InlineFunction<void(), 136>;

  Simulator();

  /// Releases single-owner thread affinity (ownership transfer).
  void DetachFromThread() { thread_checker_.DetachFromThread(); }

  /// Current simulated time in microseconds.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` microseconds from now (>= 0).
  /// Events scheduled for the same instant run in scheduling order.
  /// Templated so the closure is constructed directly inside its event
  /// slot — no intermediate EventFn moves on the hot path.
  template <typename F>
  EventId Schedule(Duration delay, F&& fn) {
    PLANET_CHECK_MSG(delay >= 0, "delay=" << delay);
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute simulated time (>= Now()).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    uint32_t slot = PrepareSlot(when);
    SlotAt(slot).fn = std::forward<F>(fn);
    return IdOf(slot);
  }

  /// Schedules `fn` at `when`, to run only if `*guard == expected` at pop
  /// time; otherwise the event is consumed silently (it still counts as
  /// processed, exactly like the old hand-written wrapper closures that
  /// checked an incarnation and returned early). `guard` must stay valid
  /// until the event fires or is cancelled. Node::Serve uses this for
  /// incarnation-guarded work so the guard doesn't have to be captured
  /// inside a second nested closure.
  template <typename F>
  EventId ScheduleGuardedAt(SimTime when, const uint64_t* guard,
                            uint64_t expected, F&& fn) {
    uint32_t slot = PrepareSlot(when);
    EventSlot& s = SlotAt(slot);
    s.guard = guard;
    s.guard_expected = expected;
    s.fn = std::forward<F>(fn);
    return IdOf(slot);
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown event is
  /// a no-op. Returns true if the event was pending. The event's captured
  /// state is destroyed before this returns.
  bool Cancel(EventId id);

  /// Runs until the event queue is empty.
  void Run();

  /// Runs all events with time <= t, then advances the clock to t.
  void RunUntil(SimTime t);

  /// Runs events for `d` more microseconds of simulated time.
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool Step();

  /// Pending (non-cancelled) events.
  size_t NumPending() const { return live_count_; }

  uint64_t events_processed() const { return events_processed_; }

  /// Event-pool occupancy, for memory-bound regression tests: `slots` is
  /// the high-water mark of concurrently pending events (the pool never
  /// shrinks but also never grows past it), `heap_entries` includes
  /// `stale_entries` tombstones awaiting compaction.
  struct PoolStats {
    size_t slots = 0;
    size_t free_slots = 0;
    size_t heap_entries = 0;
    size_t stale_entries = 0;
  };
  PoolStats pool_stats() const {
    return PoolStats{num_slots_, free_slots_.size(), heap_.size(), stale_};
  }

 private:
  /// One pooled event. `seq` is the global scheduling sequence number while
  /// the event is pending and 0 when the slot is free; `generation` counts
  /// how many times the slot has been reused (embedded in EventId so stale
  /// handles can't cancel a successor event in the same slot).
  struct EventSlot {
    uint64_t seq = 0;
    uint32_t generation = 0;
    const uint64_t* guard = nullptr;
    uint64_t guard_expected = 0;
    EventFn fn;
  };
  /// Ready-queue entry, 16 bytes: the slot index and scheduling sequence
  /// share one word (seq in the high bits, so comparing `packed` compares
  /// seq — the insertion-order tiebreak — in a single instruction). A heap
  /// entry whose seq no longer matches its slot's seq is a tombstone (the
  /// event was cancelled) and is skipped at pop. The 24/40-bit split caps
  /// the pool at 16M concurrent events and a run at ~1.1e12 scheduled
  /// events; both are checked, not assumed.
  struct HeapEntry {
    SimTime time;
    uint64_t packed;  ///< seq << kSlotBits | slot

    uint64_t seq() const { return packed >> kSlotBits; }
    uint32_t slot() const {
      return static_cast<uint32_t>(packed & (kMaxSlots - 1));
    }
  };
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;
  }

  /// Slots live in fixed-size chunks so a slot's address never changes —
  /// Step can invoke a closure in place while it schedules new events
  /// (which may grow the pool) without the storage moving underneath it.
  static constexpr uint32_t kChunkBits = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;

  EventSlot& SlotAt(uint32_t i) {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  const EventSlot& SlotAt(uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }

  /// Claims a slot for an event at `when` (ownership check, slot alloc,
  /// sequence/generation bump, heap push); the caller fills in fn/guard.
  uint32_t PrepareSlot(SimTime when);
  EventId IdOf(uint32_t slot) const {
    return (static_cast<uint64_t>(slot) + 1) << 32 | SlotAt(slot).generation;
  }
  void HeapPush(HeapEntry e);
  void HeapPopRoot();
  void SiftDown(size_t i);
  /// Rebuilds the heap without tombstones once they outnumber live entries.
  void CompactIfStale();

  ThreadChecker thread_checker_;
  SimTime now_;
  uint64_t next_seq_;
  uint64_t events_processed_;
  size_t live_count_;
  size_t stale_;
  size_t num_slots_;
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
};

}  // namespace planet

#endif  // PLANET_SIM_SIMULATOR_H_
