// Bounded MPMC queue with explicit backpressure (DESIGN.md §5i).
//
// The service's admission edge: try_push never blocks — a full queue is a
// *visible* Full result the caller turns into a structured QueueFull
// response, not an unbounded buffer that converts overload into latency and
// memory growth. pop() blocks; close() wakes every popper, and items still
// queued at close time are drained (popped) rather than dropped so the
// owner can resolve them as ShutDown — the queue never loses a request.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace udsim {

template <class T>
class BoundedQueue {
 public:
  enum class Push : std::uint8_t { Ok, Full, Closed };

  /// `metrics` (optional) receives the `service.queue.depth` gauge and
  /// `service.queue.peak` high-water mark on every push/pop.
  explicit BoundedQueue(std::size_t capacity, MetricsRegistry* metrics = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity) {
    if (metrics != nullptr) {
      depth_gauge_ = &metrics->counter("service.queue.depth");
      peak_gauge_ = &metrics->counter("service.queue.peak");
    }
  }

  /// Non-blocking enqueue. Full and Closed are the caller's signal to
  /// resolve the request (QueueFull / ShutDown) instead of waiting.
  [[nodiscard]] Push try_push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return Push::Closed;
      if (items_.size() >= capacity_) return Push::Full;
      items_.push_back(std::move(item));
      publish_depth(items_.size());
    }
    cv_.notify_one();
    return Push::Ok;
  }

  /// Blocking dequeue. Returns nullopt only when the queue is closed *and*
  /// empty — items enqueued before close() are still delivered.
  /// `depth_after` (optional) receives the depth left behind, read under the
  /// same lock as the dequeue, so later pushes cannot leak into it.
  [[nodiscard]] std::optional<T> pop(std::size_t* depth_after = nullptr) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    publish_depth(items_.size());
    if (depth_after != nullptr) *depth_after = items_.size();
    return item;
  }

  /// Stop accepting pushes and wake every blocked pop(). Idempotent.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

 private:
  void publish_depth(std::size_t depth) {
    if (depth_gauge_ != nullptr) depth_gauge_->set(depth);
    if (peak_gauge_ != nullptr) peak_gauge_->set_max(depth);
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
  MetricCounter* depth_gauge_ = nullptr;
  MetricCounter* peak_gauge_ = nullptr;
};

}  // namespace udsim
