// FIFO drop-tail queue: the paper's baseline gateway discipline.
#pragma once

#include "src/net/packet_fifo.hpp"
#include "src/net/queue.hpp"

namespace burst {

class DropTailQueue : public Queue {
 public:
  /// @p capacity_packets is the hard buffer limit B (Table 1: 50 packets).
  explicit DropTailQueue(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}

  bool dequeue(Time now, Packet& out) override;
  std::size_t len() const override { return q_.size(); }
  std::size_t capacity() const { return capacity_; }

 protected:
  bool do_enqueue(const Packet& p, Time now) override;

 private:
  std::size_t capacity_;
  PacketFifo q_;
};

}  // namespace burst
