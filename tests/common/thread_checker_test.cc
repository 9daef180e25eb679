// Tests of the ThreadChecker single-owner assertion that backs
// PLANET_DCHECK_OWNED: first use claims, other threads fail until the
// owner detaches, construction claims nothing (so hand-off works), and a
// cross-thread Store use aborts in builds with the checks compiled in.
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_checker.h"
#include "storage/store.h"

namespace planet {
namespace {

TEST(ThreadCheckerTest, FirstUseClaimsAndSameThreadPasses) {
  ThreadChecker checker;
  EXPECT_TRUE(checker.CalledOnOwnerThread());
  EXPECT_TRUE(checker.CalledOnOwnerThread());
}

TEST(ThreadCheckerTest, OtherThreadFailsUntilDetached) {
  ThreadChecker checker;
  EXPECT_TRUE(checker.CalledOnOwnerThread());
  bool other_ok = true;
  std::thread t([&] { other_ok = checker.CalledOnOwnerThread(); });
  t.join();
  EXPECT_FALSE(other_ok);

  checker.DetachFromThread();
  std::thread t2([&] { other_ok = checker.CalledOnOwnerThread(); });
  t2.join();
  EXPECT_TRUE(other_ok);
  // t2 owns it now; this thread is the intruder.
  EXPECT_FALSE(checker.CalledOnOwnerThread());
}

TEST(ThreadCheckerTest, ConstructionDoesNotClaimSoHandoffWorks) {
  auto store = std::make_unique<Store>();  // built on the main thread
  RecordView view;
  std::thread t([&] { view = store->Read(1); });  // first use: worker claims
  t.join();
  EXPECT_EQ(view.version, 0u);
}

#if defined(PLANET_THREAD_CHECKS)
TEST(ThreadCheckerDeathTest, CrossThreadStoreUseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Store store;
  store.SeedValue(1, 42);  // main thread claims the store
  EXPECT_DEATH(
      {
        std::thread t([&store] { store.SeedValue(2, 7); });
        t.join();
      },
      "single-owner");
}
#endif  // PLANET_THREAD_CHECKS

}  // namespace
}  // namespace planet
