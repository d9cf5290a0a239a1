#include "src/core/sweep.hpp"

namespace burst {

std::vector<SweepConfig> paper_protocol_set(bool include_udp) {
  std::vector<SweepConfig> configs;
  if (include_udp) {
    configs.push_back({"UDP", [](Scenario& s) { s.transport = Transport::kUdp; }});
  }
  configs.push_back({"Reno", [](Scenario& s) { s.transport = Transport::kReno; }});
  configs.push_back({"Reno/RED", [](Scenario& s) {
                       s.transport = Transport::kReno;
                       s.gateway = GatewayQueue::kRed;
                     }});
  configs.push_back({"Vegas", [](Scenario& s) { s.transport = Transport::kVegas; }});
  configs.push_back({"Vegas/RED", [](Scenario& s) {
                       s.transport = Transport::kVegas;
                       s.gateway = GatewayQueue::kRed;
                     }});
  configs.push_back({"Reno/DelayAck", [](Scenario& s) {
                       s.transport = Transport::kReno;
                       s.delayed_ack = true;
                     }});
  return configs;
}

std::vector<int> range(int lo, int hi, int step) {
  std::vector<int> out;
  for (int v = lo; v <= hi; v += step) out.push_back(v);
  return out;
}

}  // namespace burst
