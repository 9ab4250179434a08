#pragma once

// Non-owning callable reference: two words (object pointer + invoke
// thunk), no heap, no virtual dispatch. The engine's parallel
// dispatch used to take std::function, which heap-allocates its
// capture spill on every call site with a capturing lambda —
// libstdc++'s small-object optimization only covers plain function
// pointers — so every parallel_for inside the day loop paid one
// allocation per call. A FunctionRef borrows the callable instead;
// the caller keeps it alive for the duration of the call, which the
// engine's run() barrier already guarantees.

#include <type_traits>
#include <utility>

namespace v6h::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Borrow `fn`. The referenced callable must outlive every call
  /// through this FunctionRef (trivially true for the engine: the
  /// lambda lives in the caller's frame across the run() barrier).
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<Fn>, FunctionRef>>>
  FunctionRef(Fn&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        invoke_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<Fn>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*invoke_)(void*, Args...);
};

}  // namespace v6h::util
