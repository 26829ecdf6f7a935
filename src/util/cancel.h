#ifndef EPFIS_UTIL_CANCEL_H_
#define EPFIS_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace epfis {

/// Cooperative cancellation handle shared between a controller (which calls
/// Cancel) and any number of workers (which poll cancelled() at loop
/// boundaries). Copying a token copies the handle, not the flag: all copies
/// observe the same cancellation.
///
/// A default-constructed token is "null": it can never be cancelled and
/// cancelled() is a single branch, so hot loops may poll unconditionally.
/// Polling a live token is one relaxed atomic load per ancestor (chains are
/// short — a child made with Child() observes its own flag and its
/// parent's), cheap enough for per-chunk granularity.
class CancellationToken {
 public:
  /// Null token: valid to poll, never cancelled, Cancel() is a no-op.
  CancellationToken() = default;

  /// Makes a fresh root token.
  static CancellationToken Create();

  /// Makes a child token: cancelled when either the child itself or this
  /// (or any transitive parent) is cancelled. Cancelling the child does not
  /// affect the parent. Calling Child() on a null token returns a root.
  CancellationToken Child() const;

  /// True when this is a live handle (not default-constructed).
  bool valid() const { return state_ != nullptr; }

  /// Relaxed-atomic poll; false for a null token.
  bool cancelled() const;

  /// Idempotently fires the token (and thus all children). The first fire
  /// on a given token bumps the "cancel.fired" counter.
  void Cancel() const;

 private:
  struct State;
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// A point on the steady clock by which work must finish. Deadlines are
/// value types; the default is infinite (never expires), so option structs
/// can carry one unconditionally with zero behavior change when unset.
class Deadline {
 public:
  /// Infinite deadline: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `d` from now on the steady clock.
  static Deadline After(std::chrono::nanoseconds d);
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool infinite() const { return ns_ == kInfiniteNs; }

  /// True when the steady clock has passed the deadline.
  bool expired() const;

  /// Time left; zero when expired, a very large value when infinite.
  std::chrono::nanoseconds remaining() const;

 private:
  static constexpr int64_t kInfiniteNs = INT64_MAX;
  int64_t ns_ = kInfiniteNs;  // steady_clock time_since_epoch in ns
};

/// Poll helper for long-running loops: returns Cancelled / DeadlineExceeded
/// naming `what` when the token has fired or the deadline has passed, Ok
/// otherwise. Token fire wins when both hold (the controller's explicit
/// decision outranks the clock).
Status CheckCancel(const CancellationToken& token, const Deadline& deadline,
                   const char* what);

/// Thrown through a ThreadPool future when its task never started (it was
/// submitted after the pool began shutting down). Drain loops catch this
/// and map it back to Status::Cancelled.
class TaskCancelledError : public std::runtime_error {
 public:
  explicit TaskCancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Policy for RetryWithBackoff. Delays grow geometrically from `initial`
/// (capped at `max_delay`) with deterministic jitter in [0.5, 1.0) of the
/// nominal delay, seeded from `jitter_seed` so schedules reproduce.
struct BackoffOptions {
  int max_attempts = 3;
  std::chrono::nanoseconds initial = std::chrono::milliseconds(1);
  double multiplier = 2.0;
  std::chrono::nanoseconds max_delay = std::chrono::milliseconds(100);
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
  CancellationToken cancel;
  Deadline deadline;
};

/// Runs `fn` up to max_attempts times, sleeping a jittered exponential
/// backoff between attempts. Only transient failures retry (kIoError,
/// kUnavailable); any other code returns immediately. The sleep is sliced
/// so a token fire or deadline expiry interrupts it promptly, returning
/// Cancelled / DeadlineExceeded naming `what`. Bumps "retry.attempts" per
/// retry sleep; the final attempt's status is returned verbatim.
Status RetryWithBackoff(const BackoffOptions& options,
                        const std::function<Status()>& fn, const char* what);

}  // namespace epfis

#endif  // EPFIS_UTIL_CANCEL_H_
