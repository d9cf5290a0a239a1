// PacketSlab: recycled storage for packets that are "on the wire".
//
// A SimplexLink's delivery closure used to capture the whole ~120-byte
// Packet by value, which did not fit SmallFn's 48-byte inline buffer and
// heap-allocated on every hop. Instead the link parks the packet here and
// captures a 4-byte handle; the slab reaches steady state after the first
// few packets (its high-water mark is the number of deliveries in flight
// on the link, roughly prop_delay / tx_time), after which the packet path
// performs no allocations at all.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/net/packet.hpp"

namespace burst {

class PacketSlab {
 public:
  using Handle = std::uint32_t;

  /// Stores a copy of @p p; the returned handle stays valid until take().
  Handle put(const Packet& p) {
    if (free_.empty()) {
      store_.push_back(p);
      return static_cast<Handle>(store_.size() - 1);
    }
    const Handle h = free_.back();
    free_.pop_back();
    store_[h] = p;
    return h;
  }

  /// Copies the packet out and recycles its slot. Returns by value: the
  /// caller may trigger further sends (and hence put()s) while holding
  /// the result, so handing out a reference into store_ would dangle on
  /// reallocation.
  Packet take(Handle h) {
    assert(h < store_.size());
    const Packet p = store_[h];
    free_.push_back(h);
    return p;
  }

  /// Slots ever allocated (the high-water mark of packets parked at once).
  std::size_t capacity() const { return store_.size(); }

 private:
  std::vector<Packet> store_;
  std::vector<Handle> free_;
};

}  // namespace burst
