// Fixture: a mutable class handed to the sharded drain with no
// synchronization discipline at all — the shard-unchecked audit must flag
// its declaration.
#ifndef FIXTURE_HARNESS_WIDGET_H_
#define FIXTURE_HARNESS_WIDGET_H_

namespace planet {

class Widget {
 public:
  void Poke() { ++pokes_; }
  int pokes() const { return pokes_; }

 private:
  int pokes_ = 0;
};

}  // namespace planet

#endif  // FIXTURE_HARNESS_WIDGET_H_
