// SmallFn: a move-only `void()` callable with small-buffer optimization.
//
// The scheduler stores one callback per pending event and the hot loop
// creates/destroys millions of them per simulation, so the common case —
// a lambda capturing a few pointers — must not touch the heap the way
// std::function does. Callables up to kInlineSize bytes that are nothrow
// move constructible live inside the SmallFn object; anything bigger (or
// throwing on move) falls back to a single heap allocation.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace burst {

class SmallFn {
 public:
  /// Callables at most this large (and nothrow-move-constructible) are
  /// stored inline. 48 bytes = 6 captured pointers, which covers every
  /// timer/packet event in the simulator (a link keeps its in-flight
  /// packets in a FIFO that each delivery event pops, so the closure
  /// captures the link, never the ~120-byte Packet, and stays under
  /// this limit).
  static constexpr std::size_t kInlineSize = 48;

  /// True if callables of type @p F live in the inline buffer (no heap).
  /// Hot-path call sites static_assert this so a capture-list growth that
  /// would silently reintroduce per-event allocation fails to compile.
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

  SmallFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule() call site.
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      // Trivially-copyable, trivially-destructible callables (every
      // hot-path lambda: captures are pointers, handles, doubles) need no
      // manager at all — moves become a plain buffer copy and destruction
      // a no-op, skipping an indirect call on each of the two moves every
      // scheduled event makes (into its slot, then out at pop).
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        manage_ = nullptr;
      } else {
        manage_ = &inline_manage<D>;
      }
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      invoke_ = &heap_invoke<D>;
      manage_ = &heap_manage<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Destroys the held callable (releasing captured resources now, not at
  /// some later heap pop — this is what makes Scheduler::cancel eager).
  void reset() noexcept {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(Op::kDestroy, buf_, nullptr);
        manage_ = nullptr;
      }
      invoke_ = nullptr;
    }
  }

 private:
  enum class Op { kDestroy, kMove };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* from);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static void inline_invoke(void* buf) {
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }
  template <typename D>
  static void inline_manage(Op op, void* self, void* from) {
    if (op == Op::kDestroy) {
      std::launder(reinterpret_cast<D*>(self))->~D();
    } else {
      D* src = std::launder(reinterpret_cast<D*>(from));
      ::new (self) D(std::move(*src));
      src->~D();
    }
  }

  template <typename D>
  static void heap_invoke(void* buf) {
    (**std::launder(reinterpret_cast<D**>(buf)))();
  }
  template <typename D>
  static void heap_manage(Op op, void* self, void* from) {
    if (op == Op::kDestroy) {
      delete *std::launder(reinterpret_cast<D**>(self));
    } else {
      *reinterpret_cast<D**>(self) = *std::launder(reinterpret_cast<D**>(from));
    }
  }

  void move_from(SmallFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.manage_ != nullptr) {
        other.manage_(Op::kMove, buf_, other.buf_);
        manage_ = other.manage_;
        other.manage_ = nullptr;
      } else {
        // Trivially-relocatable payload: the callable's size is unknown
        // here, but copying the whole (small, aligned) buffer is cheaper
        // than an indirect call to a type-aware mover.
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      invoke_ = other.invoke_;
      other.invoke_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace burst
