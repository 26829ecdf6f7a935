#include "util/watchdog.h"

#include <algorithm>

#include "obs/metrics.h"

namespace epfis {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Watchdog::Heartbeat::Beat() {
  last_beat_ns_.store(NowNs(), std::memory_order_relaxed);
}

Watchdog::Watchdog() : Watchdog(Options()) {}

Watchdog::Watchdog(Options options) : options_(options) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

std::shared_ptr<Watchdog::Heartbeat> Watchdog::Watch(
    std::string name, std::chrono::nanoseconds budget,
    CancellationToken token) {
  auto hb = std::make_shared<Heartbeat>();
  hb->name_ = std::move(name);
  hb->budget_ns_ = std::max<int64_t>(budget.count(), 0);
  hb->token_ = std::move(token);
  hb->last_beat_ns_.store(NowNs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    watched_.push_back(hb);
    if (!started_ && !stopping_) {
      started_ = true;
      monitor_ = std::thread([this] { MonitorLoop(); });
    }
  }
  cv_.notify_all();
  return hb;
}

void Watchdog::MonitorLoop() {
  static Counter trips_counter =
      MetricsRegistry::Global().GetCounter("watchdog.trips");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, options_.poll_interval);
    if (stopping_) return;
    const int64_t now = NowNs();
    size_t keep = 0;
    for (size_t i = 0; i < watched_.size(); ++i) {
      std::shared_ptr<Heartbeat> hb = watched_[i].lock();
      if (!hb) continue;  // owner finished; drop the slot
      if (!hb->tripped_.load(std::memory_order_relaxed)) {
        int64_t last = hb->last_beat_ns_.load(std::memory_order_relaxed);
        if (now - last > hb->budget_ns_) {
          // Record the trip before firing the token, so whoever sees the
          // token fired also sees the trip counted.
          hb->tripped_.store(true, std::memory_order_relaxed);
          trips_.fetch_add(1, std::memory_order_relaxed);
          trips_counter.Increment();
          hb->token_.Cancel();
        }
      }
      watched_[keep++] = watched_[i];
    }
    watched_.resize(keep);
  }
}

}  // namespace epfis
