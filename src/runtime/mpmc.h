// Bounded multi-producer/multi-consumer ring: the admission queue of each
// SessionRuntime shard (session.h). Any number of submitters (the
// service's event threads) push jobs and pool workers pop them. A single
// producer's pushes are dequeued in push order (tickets are taken in
// order), which is what preserves per-channel frame ordering end to end.
//
// close() is the shutdown handshake: after it, pushes fail -- a producer
// blocked in push() on a full ring returns false instead of spinning on
// a consumer that has stopped -- while try_pop() still drains every
// element pushed before the close.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dsadc::runtime {

/// Bounded multi-producer/multi-consumer ring (Vyukov per-slot sequence
/// numbers). Each slot carries a sequence counter: `seq == pos` means the
/// slot is free for the producer holding ticket `pos`, `seq == pos + 1`
/// means it holds that ticket's element for the consumer. Producers and
/// consumers claim tickets with a CAS on their cursor, so the queue is
/// lock-free and elements leave in ticket (i.e. global FIFO) order.
///
/// Minimum capacity is 2: with a single slot the producer's "free"
/// condition (seq == ticket) and the consumer's "occupied" condition
/// coincide, letting a second push overwrite an unconsumed element and
/// livelocking the consumer. Requested capacities round up.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Moves from `v` on success; false when full or closed.
  bool try_push(T& v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    Cell* cell = nullptr;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->val = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Blocking push; false (element undelivered) once the ring is closed.
  bool push(T v) {
    while (!try_push(v)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
    return true;
  }

  /// False when currently empty; still drains after close().
  bool try_pop(T& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell* cell = nullptr;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    v = std::move(cell->val);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  void close() { closed_.store(true, std::memory_order_release); }

  /// Approximate occupancy; stale under concurrent traffic.
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T val{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace dsadc::runtime
