// PacketFifo: the one packet store of the network layer — every queue
// discipline's buffer (a DRR queue has one per flow) and every link's
// in-flight window.
//
// A power-of-two ring of Packets. It allocates nothing until the first
// push and then grows by doubling from one slot, so its memory follows
// the high-water occupancy, never a queue's bound B: 50 slots reserved
// up front on each of the 2×10⁵ access queues of an N=10⁵ dumbbell would
// cost about 1.2 GB, and most access queues and links never hold more
// than a packet or two. Packets are trivially
// copyable, so a slot is plain storage: emplace_back() hands the caller
// the new back slot to fill in place, which is how a link dequeues a
// packet straight into its in-flight window without a staging copy.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "src/net/packet.hpp"

namespace burst {

class PacketFifo {
 public:
  /// Slots allocated by the first push; each later growth doubles.
  static constexpr std::size_t kInitialSlots = 1;

  PacketFifo() = default;
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated: 0 until the first push, then a power of two.
  std::size_t capacity() const { return cap_; }

  void push_back(const Packet& p) { emplace_back() = p; }

  /// Appends a slot and returns it for the caller to fill; its contents
  /// are unspecified until then. The reference stays valid until the next
  /// push (which may regrow the ring).
  Packet& emplace_back() {
    if (size_ == cap_) grow();
    Packet& slot = slots_[(head_ + size_) & (cap_ - 1)];
    ++size_;
    return slot;
  }

  Packet& front() {
    assert(!empty());
    return slots_[head_];
  }
  Packet& back() {
    assert(!empty());
    return slots_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  void pop_back() {
    assert(!empty());
    --size_;
  }

 private:
  static_assert(std::is_trivially_copyable_v<Packet> &&
                    std::is_trivially_destructible_v<Packet>,
                "slots are reused by plain assignment, never destroyed");

  /// Doubles the ring (or allocates the first block), unwrapping the
  /// packets so the oldest lands in slot 0.
  void grow() {
    const std::size_t cap = cap_ == 0 ? kInitialSlots : 2 * cap_;
    std::unique_ptr<Packet[]> slots(new Packet[cap]);
    for (std::size_t i = 0; i < size_; ++i) {
      slots[i] = slots_[(head_ + i) & (cap_ - 1)];
    }
    slots_ = std::move(slots);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<Packet[]> slots_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // slot of the oldest packet
  std::size_t size_ = 0;
};

}  // namespace burst
