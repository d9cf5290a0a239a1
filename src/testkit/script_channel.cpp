#include "src/testkit/script_channel.hpp"

namespace burst::testkit {

ScriptChannel::ScriptChannel(Simulator& sim, Time base_delay)
    : sim_(sim), base_delay_(base_delay) {}

ScriptChannel& ScriptChannel::drop_seq(std::int64_t seq, int occurrence) {
  rules_.push_back({seq, occurrence, Action::kDrop});
  return *this;
}

ScriptChannel& ScriptChannel::delay_seq(std::int64_t seq, Time extra,
                                        int occurrence) {
  rules_.push_back({seq, occurrence, Action::kDelay, extra});
  return *this;
}

ScriptChannel& ScriptChannel::mark_seq(std::int64_t seq, int occurrence) {
  rules_.push_back({seq, occurrence, Action::kMark});
  return *this;
}

void ScriptChannel::send(const Packet& p) {
  ++offered_;
  const int occurrence = ++seen_[key_of(p)];

  Time extra = 0.0;
  bool drop = false, mark = false;
  for (Rule& r : rules_) {
    if (r.spent || r.seq != key_of(p) || r.occurrence != occurrence) continue;
    r.spent = true;
    switch (r.action) {
      case Action::kDrop: drop = true; break;
      case Action::kDelay: extra += r.extra; break;
      case Action::kMark: mark = true; break;
    }
  }

  if (drop) {
    ++dropped_;
    return;
  }
  Packet out = p;
  if (mark) out.ecn_marked = true;
  sim_.schedule(base_delay_ + extra, [this, out] {
    ++delivered_;
    if (receiver_) receiver_(out);
  });
}

}  // namespace burst::testkit
