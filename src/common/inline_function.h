// Move-only callable with small-buffer storage: the zero-allocation
// replacement for std::function on the simulator hot path.
//
// A scheduled event or network delivery closure captures a handful of
// pointers and POD ids; paying a heap allocation (plus a later free) per
// closure dominates the event loop's cost. InlineFunction<R(Args...), N>
// stores any callable of size <= N (and alignment <= 8) directly in the
// object — construction is a placement-new, invocation is one indirect
// call, destruction frees nothing. Callables that don't fit fall back to
// the heap, exactly like std::function, and bump a thread-local counter so
// tests (and docs/PERFORMANCE.md readers) can detect silent fallback:
//
//   uint64_t before = InlineFunctionHeapFallbacks();
//   ... construct closures ...
//   PLANET_CHECK(InlineFunctionHeapFallbacks() == before);  // all inline
//
// Differences from std::function, all deliberate:
//   - move-only (so closures can own move-only state, e.g. another
//     InlineFunction — the Network::Send delivery wrapper does this);
//   - no copy, no target_type, no allocator support;
//   - invoking an empty InlineFunction aborts (PLANET_CHECK) instead of
//     throwing std::bad_function_call.
#ifndef PLANET_COMMON_INLINE_FUNCTION_H_
#define PLANET_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace planet {

namespace internal {
/// Counts heap-fallback constructions *per thread*. Thread-local rather
/// than a shared atomic: the counter is a tripwire read as a before/after
/// delta, and when shards drain on their own threads
/// (harness/sharded_cluster.h) a process-wide counter would let one shard's
/// fallbacks trip another shard's (or a best-of-N benchmark iteration's)
/// delta check. Each worker thread now
/// observes exactly its own constructions, with no cross-thread traffic at
/// all on the hot path.
inline thread_local uint64_t t_inline_function_heap_fallbacks = 0;
}  // namespace internal

/// Number of InlineFunction constructions (any instantiation) on the
/// calling thread that had to heap-allocate because the callable exceeded
/// the inline buffer. Per-thread: read it on the thread whose closures you
/// are auditing.
inline uint64_t InlineFunctionHeapFallbacks() {
  return internal::t_inline_function_heap_fallbacks;
}

/// Resets the calling thread's fallback counter (e.g. between best-of-N
/// benchmark iterations, so one iteration's fallbacks can't leak into the
/// next iteration's tripwire delta).
inline void ResetInlineFunctionHeapFallbacks() {
  internal::t_inline_function_heap_fallbacks = 0;
}

template <typename Sig, size_t kInlineBytes>
class InlineFunction;  // undefined; use the R(Args...) specialization

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFunction<R(Args...), kInlineBytes> {
 public:
  static constexpr size_t kStorageAlign = 8;
  static_assert(kInlineBytes >= sizeof(void*),
                "inline buffer must hold at least the heap-fallback pointer");

  /// True iff a callable of type F is stored in the inline buffer (no heap).
  template <typename F>
  static constexpr bool FitsInline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= kStorageAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction& operator=(F&& f) {
    Reset();
    Construct(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    PLANET_CHECK(invoke_ != nullptr);
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  static constexpr size_t inline_bytes() { return kInlineBytes; }

 private:
  enum class Op { kDestroy, kMoveTo };
  using InvokeFn = R (*)(void*, Args&&...);
  using ManageFn = void (*)(Op, void* self, void* dest);

  template <typename F>
  void Construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &InvokeInline<D>;
      manage_ = &ManageInline<D>;
    } else {
      ++internal::t_inline_function_heap_fallbacks;
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<F>(f)));
      invoke_ = &InvokeHeap<D>;
      manage_ = &ManageHeap<D>;
    }
  }

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.manage_(Op::kMoveTo, other.storage_, storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  template <typename F>
  static R InvokeInline(void* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<F*>(s)))(
        std::forward<Args>(args)...);
  }

  template <typename F>
  static R InvokeHeap(void* s, Args&&... args) {
    return (**std::launder(reinterpret_cast<F**>(s)))(
        std::forward<Args>(args)...);
  }

  template <typename F>
  static void ManageInline(Op op, void* self, void* dest) {
    F* f = std::launder(reinterpret_cast<F*>(self));
    if (op == Op::kMoveTo) {
      ::new (dest) F(std::move(*f));
    }
    f->~F();
  }

  template <typename F>
  static void ManageHeap(Op op, void* self, void* dest) {
    F** slot = std::launder(reinterpret_cast<F**>(self));
    if (op == Op::kMoveTo) {
      ::new (dest) F*(*slot);  // transfer ownership of the heap object
    } else {
      delete *slot;
    }
  }

  // Pointers first: for small captures the whole object (dispatch pointers
  // + capture bytes) then lands in the first cache line of the enclosing
  // event slot, instead of the pointers trailing the full buffer.
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kInlineBytes];
};

}  // namespace planet

#endif  // PLANET_COMMON_INLINE_FUNCTION_H_
