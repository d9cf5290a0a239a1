#include "src/sim/timer.hpp"

namespace burst {

void Timer::schedule(Time delay) {
  const Time at = sim_.now() + delay;
  deadline_ = at;
  if (id_ != kInvalidEventId && armed_at_ <= at) {
    // Soft move: the armed event runs no later than the new deadline and
    // will re-arm itself there (or fire, if they coincide).
    return;
  }
  // Nothing armed, or the deadline shrank below the armed event — the
  // event must be (re)armed so the timer never fires late.
  disarm();
  arm(at);
}

void Timer::arm(Time at) {
  armed_at_ = at;
  auto fire = [this] { on_event(); };
  static_assert(SmallFn::stores_inline<decltype(fire)>(),
                "the timer trampoline must fit SmallFn's inline buffer");
  id_ = sim_.schedule_at(at, std::move(fire));
}

void Timer::disarm() {
  if (id_ != kInvalidEventId) {
    sim_.cancel(id_);
    id_ = kInvalidEventId;
    armed_at_ = kTimeNever;
  }
}

void Timer::on_event() {
  id_ = kInvalidEventId;
  armed_at_ = kTimeNever;
  if (deadline_ == kTimeNever) return;  // lazily cancelled: quiet no-op
  if (deadline_ > sim_.now()) {
    // The deadline moved forward while we were armed (soft moves
    // accumulate here): chase it. One hop suffices no matter how many
    // schedule() calls happened — we jump straight to the latest value.
    arm(deadline_);
    return;
  }
  deadline_ = kTimeNever;
  on_fire_();
}

}  // namespace burst
