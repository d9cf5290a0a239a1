#include "src/sim/parallel/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace burst {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ParallelRuntime::ParallelRuntime(int shards, Time lookahead,
                                 std::uint64_t seed)
    : lookahead_(lookahead),
      stats_(static_cast<std::size_t>(shards)),
      lower_bounds_(static_cast<std::size_t>(shards), kTimeNever),
      barrier_(shards),
      staged_(static_cast<std::size_t>(shards)) {
  assert(shards >= 2 && "one LP is just the sequential engine");
  assert(lookahead_ > 0.0 && "conservative windows need positive lookahead");
  lps_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    lps_.push_back(std::make_unique<Lp>(seed));
  }
}

ParallelRuntime::~ParallelRuntime() = default;

void ParallelRuntime::register_cut_link(SimplexLink* link, int from_lp,
                                        int to_lp) {
  assert(from_lp != to_lp && "a cut link must cross LPs");
  auto& in = lps_[static_cast<std::size_t>(to_lp)]->in;
  auto box = std::find_if(in.begin(), in.end(), [from_lp](const auto& o) {
    return o->from_lp == from_lp;
  });
  if (box == in.end()) {
    box = in.insert(in.end(), std::make_unique<Outbox>(from_lp));
  }
  link->set_outbox(&(*box)->events);
}

std::size_t ParallelRuntime::merge_inbound(int id) {
  Lp& lp = *lps_[static_cast<std::size_t>(id)];
  std::vector<Staged>& staged = staged_[static_cast<std::size_t>(id)];
  staged.clear();
  for (const auto& box : lp.in) {
    for (const RemoteEvent& e : box->events) {
      staged.push_back(Staged{&e, staged.size()});
    }
    box->taken += box->events.size();
  }
  if (staged.empty()) return 0;
  // Canonical merge order: the scheduler key, then the producer-side
  // causality stamps that reproduce the sequential engine's same-instant
  // FIFO order across producer LPs (see RemoteKey in link.hpp), then the
  // position in the inbound outboxes concatenated in creation order —
  // outbox creation order, then the producer's execution order.
  // Insertion below assigns local FIFO sequence numbers in exactly this
  // order, so the local heap state is a pure function of the message keys.
  std::sort(staged.begin(), staged.end(),
            [](const Staged& a, const Staged& b) {
              const RemoteKey& ka = a.e->key;
              const RemoteKey& kb = b.e->key;
              if (ka.at != kb.at) return ka.at < kb.at;
              if (ka.tie_time != kb.tie_time) {
                return ka.tie_time < kb.tie_time;
              }
              // Sequentially, colliding deliveries order by the FIFO rank
              // reserved at transmission start: an earlier start reserved
              // earlier; same-instant starts order by their parent
              // events' tie-break instants (cause).
              if (ka.tx_start != kb.tx_start) {
                return ka.tx_start < kb.tx_start;
              }
              if (ka.cause != kb.cause) return ka.cause < kb.cause;
              if (ka.chain_start != kb.chain_start) {
                // Phase-locked burst chains (equal parent ties, both
                // drains): rank inherits from the younger chain's genesis
                // instant, where its parent (tie chain_cause) raced the
                // older chain's drain (tie = chain_start minus one tx
                // time). tie_time - tx_start is that tx time, identical
                // for both within this equivalence class, so the test is
                // the same against every older chain — which is what
                // keeps this branch a strict weak ordering.
                const bool a_young = ka.chain_start > kb.chain_start;
                const RemoteKey& young = a_young ? ka : kb;
                const Time tx = ka.tie_time - ka.tx_start;
                const Time lhs = young.chain_cause + tx;
                if (lhs != young.chain_start) {
                  return a_young == (lhs < young.chain_start);
                }
                return !a_young;  // coincident ties: older rank first
              }
              if (ka.chain_cause != kb.chain_cause) {
                return ka.chain_cause < kb.chain_cause;
              }
              return a.pos < b.pos;
            });
  LpStats& st = stats_[static_cast<std::size_t>(id)];
  st.msgs_in += staged.size();
  st.merge_high_water = std::max(st.merge_high_water,
                                 static_cast<std::uint64_t>(staged.size()));
  // Each packet waits in its cut link's in-flight FIFO, which only this
  // (consumer) LP touches. One link's handoffs carry strictly increasing
  // keys in transmission order, within a window and across windows, so
  // they are parked — and their deliveries fire — in that order, and each
  // delivery pops its own packet.
  Simulator* sim = &lp.sim;
  for (const Staged& s : staged) {
    SimplexLink* link = s.e->link;
    link->in_flight().push_back(s.e->pkt);
    auto deliver = [link, sim] { link->deliver_next(sim->now()); };
    static_assert(SmallFn::stores_inline<decltype(deliver)>(),
                  "the remote-delivery closure must fit SmallFn's inline "
                  "buffer (the packet waits in the link's FIFO)");
    sim->schedule_at_as_of(s.e->key.at, s.e->key.tie_time,
                           std::move(deliver));
  }
  for (const auto& box : lp.in) box->events.clear();
  return staged.size();
}

void ParallelRuntime::lp_main(int id, Time until) {
  Lp& lp = *lps_[static_cast<std::size_t>(id)];
  LpStats& st = stats_[static_cast<std::size_t>(id)];
  std::vector<LpWindowSample>* log =
      log_windows_ ? &window_log_[static_cast<std::size_t>(id)] : nullptr;
  Time prev_gmin = kTimeNever;
  for (;;) {
    const double w0 = now_s();
    lower_bounds_[static_cast<std::size_t>(id)] = lp.sim.next_event_time();
    const double pub_wait = barrier_.arrive_and_wait();  // publish barrier
    st.wait_s += pub_wait;
    Time gmin = kTimeNever;
    for (const Time lb : lower_bounds_) gmin = std::min(gmin, lb);
    // Horizon reached (or every LP drained): exit together — every LP
    // computes the same gmin, so nobody is left behind at a barrier.
    if (gmin > until) break;
    if (prev_gmin != kTimeNever) st.horizon_advance += gmin - prev_gmin;
    prev_gmin = gmin;
    const Time safe = gmin + lookahead_;
    const double t0 = now_s();
    lp.sim.run_window(safe, until);
    const double run_dur = now_s() - t0;
    st.run_s += run_dur;
    const double flush_wait = barrier_.arrive_and_wait();  // flush barrier
    st.wait_s += flush_wait;
    const double t1 = now_s();
    const std::size_t staged = merge_inbound(id);
    const double merge_dur = now_s() - t1;
    st.run_s += merge_dur;
    ++st.windows;
    if (log != nullptr) {
      LpWindowSample s;
      s.gmin = gmin;
      s.t0_s = w0 - run_epoch_s_;
      s.pub_wait_s = pub_wait;
      s.run_s = run_dur;
      s.flush_wait_s = flush_wait;
      s.merge_s = merge_dur;
      s.events = lp.sim.events_run();
      s.staged = static_cast<std::uint32_t>(staged);
      log->push_back(s);
    }
  }
  lp.sim.finish_at(until);
  st.events = lp.sim.events_run();
  st.peak_pending = lp.sim.scheduler().peak_pending();
  st.scheduled = lp.sim.scheduler().scheduled_count();
}

void ParallelRuntime::run(Time until) {
  assert(until != kTimeNever && "parallel runs need a finite horizon");
  run_epoch_s_ = now_s();
  if (log_windows_) window_log_.resize(lps_.size());
  std::vector<std::thread> workers;
  workers.reserve(lps_.size() - 1);
  for (int i = 1; i < shards(); ++i) {
    workers.emplace_back([this, i, until] { lp_main(i, until); });
  }
  lp_main(0, until);
  for (std::thread& w : workers) w.join();
  // Every window ends with a merge, so what the consumers took is
  // everything the producers posted.
  for (const auto& lp : lps_) {
    for (const auto& box : lp->in) {
      stats_[static_cast<std::size_t>(box->from_lp)].msgs_out += box->taken;
    }
  }
}

std::uint64_t ParallelRuntime::total_events() const {
  std::uint64_t total = 0;
  for (const LpStats& s : stats_) total += s.events;
  return total;
}

std::uint64_t ParallelRuntime::total_scheduled() const {
  std::uint64_t total = 0;
  for (const LpStats& s : stats_) total += s.scheduled;
  return total;
}

std::uint64_t ParallelRuntime::max_peak_pending() const {
  std::uint64_t peak = 0;
  for (const LpStats& s : stats_) peak = std::max(peak, s.peak_pending);
  return peak;
}

}  // namespace burst
