// Deficit Round Robin fair queueing (Shreedhar & Varghese, 1995), with
// McKenney-style longest-queue drop when the shared buffer fills.
//
// Included as the scheduling counterfactual to the paper's FIFO/RED
// results: per-flow isolation at the gateway removes the shared-tail-drop
// coupling that synchronizes Reno streams, so the dependency the paper
// identifies should weaken. The ablation bench measures exactly that.
#pragma once

#include <list>
#include <unordered_map>

#include "src/net/packet_fifo.hpp"
#include "src/net/queue.hpp"

namespace burst {

struct DrrConfig {
  std::size_t capacity = 50;   // total buffered packets across all flows
  int quantum_bytes = 1040;    // per-round service quantum (one packet)
};

class DrrQueue : public Queue {
 public:
  explicit DrrQueue(DrrConfig cfg) : cfg_(cfg) {}

  bool dequeue(Time now, Packet& out) override;
  std::size_t len() const override { return total_; }

  /// Number of flows currently backlogged.
  std::size_t active_flows() const { return active_.size(); }

 protected:
  bool do_enqueue(const Packet& p, Time now) override;

 private:
  struct FlowState {
    PacketFifo q;
    long deficit = 0;
    bool needs_quantum = true;  // one quantum credit per round-robin visit
    bool in_active = false;
    std::list<FlowId>::iterator active_pos{};
  };

  /// Removes and returns the tail packet of the longest per-flow queue.
  Packet drop_from_longest();
  void deactivate(FlowState& f, FlowId id);

  DrrConfig cfg_;
  std::unordered_map<FlowId, FlowState> flows_;
  std::list<FlowId> active_;  // round-robin order
  std::size_t total_ = 0;
};

}  // namespace burst
