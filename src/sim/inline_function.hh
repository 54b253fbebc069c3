/**
 * @file
 * Small-buffer-optimized, non-allocating callable — the event
 * kernel's replacement for std::function.
 *
 * Every simulated primitive (hypercall, vIRQ injection, world switch,
 * netperf transaction) is dispatched as an event callback, so the
 * per-event cost of the callback type is the hottest constant in the
 * whole harness. std::function heap-allocates once the capture
 * exceeds its tiny internal buffer (16 bytes on libstdc++), which put
 * one malloc/free pair on nearly every scheduled event. InlineFunction
 * stores the capture inline — always — and *statically rejects*
 * callables that do not fit, so the no-allocation property is a
 * compile-time guarantee rather than a hope: if an in-tree capture
 * grows past the buffer, the build breaks at the offending lambda
 * instead of silently reintroducing allocator traffic.
 *
 * Deliberately minimal: move-only, no allocator fallback, no
 * target_type introspection. Calling an empty InlineFunction panics.
 * assign() builds a callable directly in the buffer, which lets the
 * event queue construct each callback in its arena slot.
 */

#ifndef VIRTSIM_SIM_INLINE_FUNCTION_HH
#define VIRTSIM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/log.hh"

namespace virtsim {

/** Inline capture budget, in bytes. The largest in-tree captures are
 *  the (para)virtual rx delivery closures — a Packet (32) plus a Done
 *  continuation (32) plus hypervisor/VM context and a timestamp
 *  (24) = 88 bytes; 96 covers them and, given max_align_t padding,
 *  occupies no more storage than 88 would. */
inline constexpr std::size_t inlineFunctionCapacity = 96;

template <typename Signature,
          std::size_t Capacity = inlineFunctionCapacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    R
    operator()(Args... args)
    {
        VIRTSIM_ASSERT(call, "calling an empty InlineFunction");
        return call(buf, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return call != nullptr; }

    /**
     * Replace the held callable with f, constructed directly in this
     * function's buffer: no temporary InlineFunction and no
     * relocation. Given an InlineFunction rvalue, this is a move
     * assignment.
     */
    template <typename F>
    void
    assign(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, InlineFunction>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFunction is move-only");
            *this = std::move(f);
        } else {
            static_assert(std::is_invocable_r_v<R, D &, Args...>,
                          "callable has the wrong signature");
            reset();
            construct<D>(std::forward<F>(f));
        }
    }

    /** Destroy the held callable, leaving the function empty. */
    void
    reset() noexcept
    {
        if (relocateOrDestroy)
            relocateOrDestroy(buf, nullptr);
        call = nullptr;
        relocateOrDestroy = nullptr;
    }

  private:
    /** Build a D from f in buf; the function must be empty. */
    template <typename D, typename F>
    void
    construct(F &&f)
    {
        static_assert(sizeof(D) <= Capacity,
                      "event callback capture exceeds the inline "
                      "buffer; shrink the capture (box rarely-used "
                      "state, capture pointers not objects) rather "
                      "than reintroducing per-event heap allocation");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned event callback capture");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event callbacks must be nothrow-movable (an "
                      "InlineFunction relocates them when moved)");
        ::new (static_cast<void *>(buf)) D(std::forward<F>(f));
        call = [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<D *>(p)))(
                std::forward<Args>(args)...);
        };
        relocateOrDestroy = [](void *src, void *dst) noexcept {
            D *s = std::launder(reinterpret_cast<D *>(src));
            if (dst)
                ::new (dst) D(std::move(*s));
            s->~D();
        };
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (!other.call)
            return;
        other.relocateOrDestroy(other.buf, buf);
        call = other.call;
        relocateOrDestroy = other.relocateOrDestroy;
        other.call = nullptr;
        other.relocateOrDestroy = nullptr;
    }

    alignas(std::max_align_t) std::byte buf[Capacity];
    R (*call)(void *, Args...) = nullptr;
    /** Move the callable into dst (or just destroy it when dst is
     *  null); one pointer covers both relocation and destruction. */
    void (*relocateOrDestroy)(void *src, void *dst) noexcept = nullptr;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_INLINE_FUNCTION_HH
