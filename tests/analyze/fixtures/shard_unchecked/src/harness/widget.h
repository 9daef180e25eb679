// Fixture: a mutable class handed to the sharded drain with no
// synchronization discipline at all — the shard-unchecked audit must flag
// its declaration (`final` included). Gizmo inherits its ThreadChecker
// from a class template, which satisfies the audit.
#ifndef FIXTURE_HARNESS_WIDGET_H_
#define FIXTURE_HARNESS_WIDGET_H_

namespace planet {

template <typename T>
class CheckedBase {
 protected:
  ThreadChecker thread_checker_;
};

class Gizmo final : public CheckedBase<int> {
 public:
  void Poke() { ++pokes_; }

 private:
  int pokes_ = 0;
};

class Widget final {
 public:
  void Poke() { ++pokes_; }
  int pokes() const { return pokes_; }

 private:
  int pokes_ = 0;
};

}  // namespace planet

#endif  // FIXTURE_HARNESS_WIDGET_H_
