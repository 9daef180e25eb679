// FlatMap against std::unordered_map: the same seeded random sequence of
// operations drives both, and the two must agree after every step.
#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace planet {
namespace {

constexpr uint64_t kLargestKey = std::numeric_limits<uint64_t>::max() - 1;

/// True if `key` hashes to the last slot of every table of 16 to 64 slots:
/// the top six bits of the Fibonacci hash of key + 1 are all set. Such keys
/// collide with each other and their probe runs wrap to slot 0.
bool HomesInLastSlot(uint64_t key) {
  return ((key + 1) * 0x9E3779B97F4A7C15ull) >> 58 == 63;
}

/// A pool small enough that the table stays within 16 to 64 slots: 0, the
/// largest legal key, a dozen keys that share the last slot, and random
/// keys.
std::vector<uint64_t> KeyPool(Rng& rng) {
  std::vector<uint64_t> pool = {0, kLargestKey};
  for (uint64_t key = 1; pool.size() < 14; ++key) {
    if (HomesInLastSlot(key)) pool.push_back(key);
  }
  while (pool.size() < 40) pool.push_back(rng.Next() >> 1);
  return pool;
}

void ExpectSame(const FlatMap<uint64_t>& map,
                const std::unordered_map<uint64_t, uint64_t>& ref,
                const std::vector<uint64_t>& pool) {
  ASSERT_EQ(map.size(), ref.size());
  for (uint64_t key : pool) {
    const uint64_t* value = map.Find(key);
    auto it = ref.find(key);
    ASSERT_EQ(value != nullptr, it != ref.end()) << "key " << key;
    if (value != nullptr) {
      ASSERT_EQ(*value, it->second) << "key " << key;
    }
  }
  std::map<uint64_t, uint64_t> seen;
  map.ForEach([&](uint64_t key, uint64_t value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "key visited twice";
  });
  const std::map<uint64_t, uint64_t> want(ref.begin(), ref.end());
  EXPECT_EQ(seen, want);
}

TEST(FlatMap, MatchesUnorderedMapOnRandomOperations) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::vector<uint64_t> pool = KeyPool(rng);
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t key = pool[rng.Next() % pool.size()];
      const uint64_t op = rng.Next() % 100;
      if (op < 55) {
        const uint64_t value = rng.Next();
        auto [slot, inserted] = map.TryEmplace(key, value);
        auto [it, ref_inserted] = ref.try_emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*slot, it->second);
      } else if (op < 85) {
        ASSERT_EQ(map.Erase(key), ref.erase(key) == 1);
      } else if (op < 98) {
        const uint64_t residue = rng.Next() % 3;
        size_t calls = 0;
        const size_t before = map.size();
        const size_t erased = map.EraseIf([&](uint64_t, uint64_t value) {
          ++calls;
          return value % 3 == residue;
        });
        ASSERT_EQ(calls, before) << "EraseIf calls its predicate once each";
        ASSERT_EQ(erased, std::erase_if(ref, [&](const auto& entry) {
                    return entry.second % 3 == residue;
                  }));
      } else {
        map.clear();
        ref.clear();
      }
      ExpectSame(map, ref, pool);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlatMap, GrowsPastManyDoublings) {
  FlatMap<uint64_t> map;
  for (uint64_t key = 0; key < 100000; ++key) map.TryEmplace(key * 7, key);
  ASSERT_EQ(map.size(), 100000u);
  for (uint64_t key = 0; key < 100000; ++key) {
    const uint64_t* value = map.Find(key * 7);
    ASSERT_NE(value, nullptr);
    ASSERT_EQ(*value, key);
    ASSERT_EQ(map.Find(key * 7 + 1), nullptr);
  }
  EXPECT_EQ(map.EraseIf([](uint64_t key, uint64_t) { return key % 2 == 0; }),
            50000u);
  for (uint64_t key = 0; key < 100000; ++key) {
    ASSERT_EQ(map.Find(key * 7) != nullptr, key % 2 == 1);
  }
}

TEST(FlatMap, RejectsTheReservedKey) {
  FlatMap<uint64_t> map;
  EXPECT_DEATH(map.TryEmplace(std::numeric_limits<uint64_t>::max(), 1),
               "key != std::numeric_limits<uint64_t>::max\\(\\)");
}

}  // namespace
}  // namespace planet
