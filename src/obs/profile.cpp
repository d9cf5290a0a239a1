#include "src/obs/profile.hpp"

namespace burst {

std::atomic<int> Profiler::active_count_{0};

std::string_view to_string(ProfilePhase p) {
  switch (p) {
    case ProfilePhase::kOther: return "other";
    case ProfilePhase::kDispatch: return "dispatch";
    case ProfilePhase::kTransport: return "transport";
    case ProfilePhase::kQueue: return "queue";
  }
  return "unknown";
}

}  // namespace burst
