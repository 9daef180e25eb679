// Open-addressing hash table from 64-bit keys to small trivially copyable
// values: the per-message maps of the store, the MDCC learner, the 2PC
// lock table and the predictor's conflict model.
//
// std::unordered_map allocates a node per entry and, on libstdc++, reduces
// every hash by a prime modulo (a 64-bit division) at each probe step.
// FlatMap keeps (key, value) slots in one power-of-two array instead:
//   - a key is stored plus one, so a stored 0 marks an empty slot (a key of
//     UINT64_MAX is therefore not allowed; Stored() checks it);
//   - the home slot is a Fibonacci hash: the top bits of the stored key
//     times 2^64/phi;
//   - collisions probe linearly, and the load stays at most 3/4 (the array
//     doubles before an insert would exceed it);
//   - erase shifts the rest of the probe run back into the hole, so there
//     are no tombstones and a lookup never walks past a dead slot.
// Any insert or erase may move entries, so a pointer from Find or
// TryEmplace is valid only until the next insert or erase. Iteration order
// is the slot order, which depends on the capacity and the key set: callers
// that emit what they iterate sort first.
#ifndef PLANET_COMMON_FLAT_MAP_H_
#define PLANET_COMMON_FLAT_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace planet {

template <typename V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap copies values as it probes, shifts and grows");

 public:
  size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr.
  const V* Find(uint64_t key) const {
    const size_t i = IndexOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// Inserts `value` under `key` unless `key` is present. Returns the
  /// entry's value (the old one if present) and whether it was inserted.
  std::pair<V*, bool> TryEmplace(uint64_t key, const V& value) {
    const uint64_t stored = Stored(key);
    if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
    size_t i = Home(stored);
    for (; slots_[i].key != 0; i = (i + 1) & mask_) {
      if (slots_[i].key == stored) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{stored, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(uint64_t key) {
    const size_t i = IndexOf(key);
    if (i == kAbsent) return false;
    EraseSlot(i);
    return true;
  }

  /// Removes every entry for which `pred(key, value)` holds, calling it
  /// once per entry; returns the number removed.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    if (size_ == 0) return 0;
    // Sweep from just past an empty slot (the load bound leaves one) to that
    // slot again. No probe run crosses it, so a backward shift only moves
    // entries the sweep has not reached into the slot it stands on, which
    // is then examined again.
    size_t empty = 0;
    while (slots_[empty].key != 0) ++empty;
    size_t erased = 0;
    for (size_t n = 1; n <= mask_;) {
      const size_t i = (empty + n) & mask_;
      Slot& slot = slots_[i];
      if (slot.key != 0 && pred(slot.key - 1, std::as_const(slot.value))) {
        EraseSlot(i);
        ++erased;
      } else {
        ++n;
      }
    }
    return erased;
  }

  /// Calls `fn(key, value)` for every entry, in slot order. `fn` must not
  /// insert or erase.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != 0) fn(slot.key - 1, slot.value);
    }
  }

  /// Removes every entry and keeps the capacity.
  void clear() {
    for (Slot& slot : slots_) slot.key = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;  ///< key + 1; 0 marks an empty slot
    V value{};
  };

  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kAbsent = std::numeric_limits<size_t>::max();
  static constexpr uint64_t kGoldenRatio = 0x9E3779B97F4A7C15ull;

  static uint64_t Stored(uint64_t key) {
    PLANET_CHECK(key != std::numeric_limits<uint64_t>::max());
    return key + 1;
  }

  size_t Home(uint64_t stored) const {
    return static_cast<size_t>((stored * kGoldenRatio) >> shift_);
  }

  /// The slot holding `key`, or kAbsent.
  size_t IndexOf(uint64_t key) const {
    if (size_ == 0) return kAbsent;
    const uint64_t stored = Stored(key);
    for (size_t i = Home(stored);; i = (i + 1) & mask_) {
      if (slots_[i].key == stored) return i;
      if (slots_[i].key == 0) return kAbsent;
    }
  }

  /// Empties slot `i`, then walks the rest of its probe run and moves into
  /// the hole every entry whose home is at or before the hole, which leaves
  /// a new hole where that entry was.
  void EraseSlot(size_t i) {
    size_t hole = i;
    for (size_t j = (i + 1) & mask_; slots_[j].key != 0; j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? kMinCapacity : 2 * slots_.size();
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key == 0) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace planet

#endif  // PLANET_COMMON_FLAT_MAP_H_
