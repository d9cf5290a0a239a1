// Google-benchmark micro suite for the simulation substrate: event
// scheduler, queues, RED arithmetic, and whole-simulation event rates.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/red_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < batch; ++i) {
      s.schedule_at(static_cast<Time>(i % 97), [] {});
    }
    while (!s.empty()) s.take_next().fn();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int remaining = 100000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(0.001, tick);
    };
    sim.schedule(0.001, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.events_run());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorTimerChain);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  DropTailQueue q(64);
  Packet p;
  p.size_bytes = 1040;
  for (auto _ : state) {
    q.enqueue(p, 0.0);
    benchmark::DoNotOptimize(q.dequeue(0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  RedConfig cfg;
  RedQueue q(cfg, Random(1));
  Packet p;
  p.size_bytes = 1040;
  Time t = 0.0;
  for (auto _ : state) {
    t += 1e-4;
    q.enqueue(p, t);
    benchmark::DoNotOptimize(q.dequeue(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

void BM_EndToEndSimulation(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    Scenario sc = Scenario::paper_default();
    sc.num_clients = clients;
    sc.duration = 2.0;
    Simulator sim(sc.seed);
    TopoNet net(sim, make_dumbbell_spec(sc));
    net.start_sources();
    sim.run(sc.duration);
    events += sim.events_run();
    benchmark::DoNotOptimize(net.total_delivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndSimulation)->Arg(10)->Arg(40)->Arg(60);

}  // namespace

BENCHMARK_MAIN();
