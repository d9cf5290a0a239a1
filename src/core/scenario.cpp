#include "src/core/scenario.hpp"

#include <cmath>
#include <sstream>

#include "src/net/packet.hpp"

namespace burst {

std::string to_string(Transport t) {
  switch (t) {
    case Transport::kUdp: return "UDP";
    case Transport::kTahoe: return "Tahoe";
    case Transport::kReno: return "Reno";
    case Transport::kNewReno: return "NewReno";
    case Transport::kVegas: return "Vegas";
    case Transport::kSack: return "Sack";
  }
  return "?";
}

std::string to_string(GatewayQueue q) {
  switch (q) {
    case GatewayQueue::kDropTail: return "FIFO";
    case GatewayQueue::kRed: return "RED";
    case GatewayQueue::kDrr: return "DRR";
  }
  return "?";
}

int Scenario::wire_bytes() const { return payload_bytes + kHeaderBytes; }

double Scenario::bottleneck_pps() const {
  return scaled_bottleneck_bw_bps() / (8.0 * wire_bytes());
}

double Scenario::meanfield_factor() const {
  if (meanfield_base <= 0) return 1.0;
  return static_cast<double>(num_clients) / static_cast<double>(meanfield_base);
}

double Scenario::scaled_bottleneck_bw_bps() const {
  // Early-out rather than *1.0 so base==0 is byte-for-byte the raw value
  // (multiplying by 1.0 is also exact, but the intent reads better).
  if (meanfield_base <= 0) return bottleneck_bw_bps;
  return bottleneck_bw_bps * meanfield_factor();
}

std::size_t Scenario::scaled_gateway_buffer() const {
  if (meanfield_base <= 0) return gateway_buffer;
  const double scaled =
      static_cast<double>(gateway_buffer) * meanfield_factor();
  return static_cast<std::size_t>(std::llround(scaled));
}

double Scenario::scaled_red_min_th() const {
  if (meanfield_base <= 0) return red_min_th;
  return red_min_th * meanfield_factor();
}

double Scenario::scaled_red_max_th() const {
  if (meanfield_base <= 0) return red_max_th;
  return red_max_th * meanfield_factor();
}

double Scenario::offered_pps() const {
  return static_cast<double>(num_clients) / mean_interarrival;
}

double Scenario::saturation_clients() const {
  return bottleneck_pps() * mean_interarrival;
}

Time Scenario::client_delay_for(int i) const {
  if (client_delay_spread <= 0.0 || num_clients < 2) return client_delay;
  const double position =
      2.0 * static_cast<double>(i) / static_cast<double>(num_clients - 1) -
      1.0;  // -1 .. +1 across the client population
  return client_delay * (1.0 + client_delay_spread * position);
}

std::string Scenario::label() const {
  std::ostringstream os;
  os << to_string(transport);
  if (delayed_ack) os << "/DelAck";
  if (gateway == GatewayQueue::kRed) {
    os << (adaptive_red ? "/ARED" : "/RED");
    if (ecn) os << "+ECN";
  } else if (gateway == GatewayQueue::kDrr) {
    os << "/DRR";
  }
  os << " N=" << num_clients;
  return os.str();
}

}  // namespace burst
