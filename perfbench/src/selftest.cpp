/// Tests of the benchmark's own code: the hooks are read-only and their
/// counters exact under concurrency, the percentile rule refuses thin
/// tails, and metric names are valid. Run with
///   python3 perfbench/run.py --selftest
/// Exits 0 when every check passes.

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fedwcm/fl/registry.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

/// Small versions of the three workload kinds: eager buffered MLP, eager
/// conv net, lazy stream fold with int8 uplink.
const Workload kSmall[] = {
    {"small_mlp", false, false, 20, 0.5, 3, 0.0f, 0.0f},
    {"small_conv", true, false, 20, 0.25, 2, 0.0f, 0.0f},
    {"small_lazy", false, true, 1000, 0.02, 3, 0.0f, 0.0f},
};

/// Sums LocalResult::num_steps as the engine hands uploads to observers
/// (buffered aggregation only).
class StepTruth final : public fl::RoundObserver {
 public:
  void on_aggregate(std::size_t, const fl::Algorithm&,
                    std::span<const fl::LocalResult> accepted,
                    const fl::ParamVector&, fl::RoundRecord&) override {
    for (const fl::LocalResult& r : accepted) steps += r.num_steps;
  }
  std::uint64_t steps = 0;
};

struct Outcome {
  std::uint64_t hash = 0;
  std::uint64_t probe_steps = 0;
  std::uint64_t true_steps = 0;
  std::uint64_t layer_calls = 0;
};

/// One run of `w`; with `hooks`, through all three decorators with span
/// timing on, else through none of them.
Outcome run(const Workload& w, std::size_t threads, bool hooks) {
  Probe probe(true, 1000);
  probe.set_logging(true);
  const Instance::ModelWrap wrap =
      hooks ? Instance::ModelWrap([&probe](nn::ModelFactory f, std::size_t d) {
        return probe.wrap_model(std::move(f), d);
      })
            : Instance::ModelWrap();
  probe.begin_rep(now_ns());
  Instance inst(w, 7, threads, wrap);
  auto truth = std::make_shared<StepTruth>();
  inst.simulation().add_observer(truth);
  std::unique_ptr<fl::Algorithm> algorithm = fl::make_algorithm("fedwcm");
  if (hooks) {
    inst.simulation().add_observer(std::make_shared<RoundClock>(probe));
    algorithm = std::make_unique<ProbedAlgorithm>(std::move(algorithm), probe);
  }
  const fl::SimulationResult result = inst.simulation().run(*algorithm);
  Outcome out;
  out.hash = fnv1a64(result.final_params);
  out.probe_steps = probe.steps();
  out.true_steps = truth->steps;
  for (const LayerInfo& l : probe.layers())
    for (const auto& pass : l.stats)
      for (const PassStats& s : pass) out.layer_calls += s.calls.load();
  for (const LayerInfo& l : probe.layers())
    for (const auto& pass : l.span_name)
      for (const std::string& name : pass)
        if (!valid_metric_name(name + ".gflops"))
          expect(false, "layer metric name " + name + " is valid");
  return out;
}

/// Four threads call the hook entry points that training workers call, far
/// more often than a run does; every update must land.
void stress_counters() {
  constexpr std::uint64_t kThreads = 4, kCalls = 200000;
  Probe probe(true);
  LayerInfo info;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        probe.on_local_update(0, 1, 0, 1);
        probe.on_layer(info, kFwd, 1, 0, 1);
      }
    });
  for (std::thread& t : threads) t.join();
  const PassStats& s = info.stats[kFwd][kEval];
  expect(probe.steps() == kThreads * kCalls && s.calls == kThreads * kCalls &&
             s.ns == kThreads * kCalls && s.rows == kThreads * kCalls,
         "counters lose no update from 4 threads (" +
             std::to_string(probe.steps()) + " steps, " +
             std::to_string(s.calls.load()) + " layer calls of " +
             std::to_string(kThreads * kCalls) + ")");
}

}  // namespace

int main() {
  for (const Workload& w : kSmall) {
    const Outcome plain = run(w, 1, false);
    const Outcome hooked = run(w, 1, true);
    expect(plain.hash == hooked.hash,
           w.name + ": final params are bitwise equal with hooks on and off");
  }

  stress_counters();
  // Four workers train at once; the hooks count what the engine reports.
  const Outcome one = run(kSmall[0], 1, true);
  const Outcome four = run(kSmall[0], 4, true);
  expect(four.true_steps > 0 && four.probe_steps == four.true_steps,
         "step counter is exact at 4 threads (" +
             std::to_string(four.probe_steps) + " of " +
             std::to_string(four.true_steps) + ")");
  expect(four.layer_calls == one.layer_calls,
         "layer call counters match between 1 and 4 threads");
  expect(four.hash == one.hash, "final params do not depend on thread count");

  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(double(i));
  expect(!tail_percentile(v, 0.9), "p90 of 99 samples is refused");
  v.push_back(100.0);
  const std::optional<double> p90 = tail_percentile(v, 0.9);
  expect(p90 && *p90 == 90.0, "p90 of 100 samples is the 90th, 10 beyond it");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");

  expect(valid_metric_name("nn.0.Linear.fwd.train.ns") &&
             valid_metric_name("round_ms_p50") && valid_metric_name("a-b_c.9"),
         "valid metric names are accepted");
  expect(!valid_metric_name("") && !valid_metric_name("_lead") &&
             !valid_metric_name("has space") && !valid_metric_name("a/b") &&
             !valid_metric_name(std::string(65, 'a')),
         "invalid metric names are refused");

  std::cout << (failures == 0 ? "all checks passed\n" : "checks failed\n");
  return failures == 0 ? 0 : 1;
}
