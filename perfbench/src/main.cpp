/// perfbench: runs one workload for a time budget and prints its
/// metrics. Invoked by run.py as
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
/// The last stdout line is one JSON object with the keys correct,
/// attempted, failed and metrics. `--trace 0` reports the end-to-end
/// metrics from an untraced run; `--trace 1` runs untraced and then traced
/// for half the budget each and reports the per-layer metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "fedwcm/core/rng.hpp"
#include "fedwcm/fl/registry.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Span log capacity of a traced run, about 3 MB: the whole first
/// repetition of paper_mlp (~62,000 spans) and paper_conv (~31,000), the
/// first few dozen rounds of million_lazy_int8.
constexpr std::size_t kSpanCapacity = 100000;
/// Clients whose data the client-source probe materializes.
constexpr std::size_t kMaterializeProbes = 2000;
/// Sub-seeds per run. The quality metrics vary from seed to seed far more
/// than timings do; their mean over eight sub-seeds keeps the spread across
/// benchmark seeds within bounds. Repetition i runs sub-seed i % kSubSeeds.
constexpr std::size_t kSubSeeds = 8;
/// Repetitions in each half of a traced run: sub-seeds 0-3, untraced and
/// then traced, compared bitwise.
constexpr std::size_t kTracedReps = 4;
/// Box probe time at the reference speed, in us: about its full-speed time
/// on a 4-vCPU KVM guest (Intel Xeon with AVX-512). Timings are reported at
/// this speed: each round's wall time is scaled by kRefNominalUs over the
/// box probe run right after it, and each set-up by the probes run around
/// it (README.md, "Box speed").
constexpr double kRefNominalUs = 32.0;

/// Median of `n` box probes, in us.
double box_probe_median_us(int n) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) us.push_back(box_probe_us());
  return median(us);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") a.trace_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

/// Everything one series of repetitions measured.
struct Series {
  std::size_t reps = 0;
  std::vector<double> setup_s, generate_s, partition_s, ctor_s, initialize_s;
  std::vector<double> round_ms;      ///< At reference box speed.
  std::vector<double> raw_round_ms;  ///< Wall time.
  std::vector<double> ref_us;        ///< Box probe after each round.
  std::vector<RoundPhases> phases;
  std::uint64_t steps = 0, rounds = 0, bytes = 0, attempted = 0, failed = 0;
  double loop_s = 0.0;  ///< Round loop at reference box speed.
  std::vector<std::uint64_t> hashes;
  std::vector<float> tails;
  std::vector<std::size_t> to_target;
  /// VmRSS at on_run_begin and VmHWM at the end of the first repetition.
  std::uint64_t setup_rss_kb = 0, first_peak_kb = 0;
  double materialize_us = 0.0;
};

/// Rounds run until test accuracy first reaches `target`; rounds + 1 when
/// it never does.
std::size_t rounds_to_target(const std::vector<float>& accuracy, float target) {
  for (std::size_t r = 0; r < accuracy.size(); ++r)
    if (accuracy[r] >= target) return r + 1;
  return accuracy.size() + 1;
}

/// Median microseconds of FlContext::client_indices_copy over a fixed set
/// of clients: lazy materialization on a lazy workload, an index copy on an
/// eager one.
double time_client_source(const fl::FlContext& ctx, std::uint64_t seed) {
  fedwcm::core::Rng rng(fedwcm::core::derive_seed(seed, 0x50C3));
  std::vector<double> us;
  std::size_t total = 0;
  for (std::size_t i = 0; i < kMaterializeProbes; ++i) {
    const std::size_t k = rng.uniform_index(ctx.num_clients());
    const std::int64_t t0 = now_ns();
    const std::vector<std::size_t> idx = ctx.client_indices_copy(k);
    us.push_back(double(now_ns() - t0) / 1e3);
    total += idx.size();
  }
  if (total == 0) std::cout << "warning: every probed client is empty\n";
  return median(us);
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  return fedwcm::core::derive_seed(seed, 0x5EED, j + 1);
}

/// Repeats the workload from scratch until `seconds` have passed, at least
/// `min_reps` repetitions ran and the round samples allow a p90.
Series measure(const Workload& w, std::uint64_t seed, double seconds,
               std::size_t min_reps, Probe& probe) {
  Series s;
  const Instance::ModelWrap wrap =
      probe.traced() ? Instance::ModelWrap([&probe](nn::ModelFactory f,
                                                    std::size_t input_dim) {
        return probe.wrap_model(std::move(f), input_dim);
      })
                     : Instance::ModelWrap();
  const std::int64_t begin = now_ns();
  const std::uint64_t steps_before = probe.steps();
  while (s.reps < min_reps || s.round_ms.size() < 100 ||
         double(now_ns() - begin) / 1e9 < seconds) {
    probe.set_logging(probe.traced() && s.reps == 0);
    const std::size_t j = s.reps % kSubSeeds;
    const double setup_ref_us = box_probe_us();
    RepRecord& rec = probe.begin_rep(now_ns());
    Instance inst(w, sub_seed(seed, j), 1, wrap);
    const SetupTimes& st = inst.setup_times();
    probe.log_span("data.generate", st.begin_ns, st.generated_ns);
    probe.log_span("data.partition", st.generated_ns, st.partitioned_ns);
    probe.log_span("fl.ctor", st.partitioned_ns, st.constructed_ns);
    fl::Simulation& sim = inst.simulation();
    sim.add_observer(std::make_shared<RoundClock>(probe));
    ProbedAlgorithm algorithm(fl::make_algorithm("fedwcm"), probe);
    const fl::SimulationResult result = sim.run(algorithm);

    if (sim.context().config->threads != 1)
      throw std::runtime_error("the engine must run with threads == 1");
    if (rec.round_ms.size() != w.rounds)
      throw std::runtime_error("a repetition ran the wrong number of rounds");
    s.setup_s.push_back(double(rec.run_begin_ns - rec.start_ns) / 1e9 *
                        kRefNominalUs /
                        (0.5 * (setup_ref_us + rec.begin_ref_us)));
    s.generate_s.push_back(double(st.generated_ns - st.begin_ns) / 1e9);
    s.partition_s.push_back(double(st.partitioned_ns - st.generated_ns) / 1e9);
    s.ctor_s.push_back(double(st.constructed_ns - st.partitioned_ns) / 1e9);
    s.initialize_s.push_back(rec.initialize_s);
    for (std::size_t r = 0; r < rec.round_ms.size(); ++r) {
      const double ms = rec.round_ms[r] * kRefNominalUs / rec.ref_us[r];
      s.round_ms.push_back(ms);
      s.loop_s += ms / 1e3;
    }
    s.raw_round_ms.insert(s.raw_round_ms.end(), rec.round_ms.begin(),
                          rec.round_ms.end());
    s.ref_us.insert(s.ref_us.end(), rec.ref_us.begin(), rec.ref_us.end());
    s.phases.insert(s.phases.end(), rec.phases.begin(), rec.phases.end());
    s.rounds += rec.round_ms.size();
    s.bytes += rec.bytes;
    s.attempted += rec.attempted;
    s.failed += rec.failed;
    s.hashes.push_back(fnv1a64(result.final_params));
    s.tails.push_back(result.tail_mean_accuracy);
    s.to_target.push_back(rounds_to_target(rec.accuracy, w.target_accuracy));
    if (s.reps == 0) {
      s.setup_rss_kb = rec.setup_rss_kb;
      s.first_peak_kb = peak_rss_kb();
      if (probe.traced())
        s.materialize_us = time_client_source(sim.context(), sub_seed(seed, j));
    }
    ++s.reps;
  }
  probe.set_logging(false);
  s.steps = probe.steps() - steps_before;
  return s;
}

/// Output checks shared by both modes; each failure is printed.
bool check_series(const Series& s, const Workload& w) {
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cout << "CHECK FAILED: " << what << "\n";
    ok = false;
  };
  for (std::size_t i = kSubSeeds; i < s.reps; ++i) {
    const std::size_t first = i % kSubSeeds;
    if (s.hashes[i] != s.hashes[first])
      fail("final params differ between repetitions of one seed");
    if (std::memcmp(&s.tails[i], &s.tails[first], sizeof(float)) != 0)
      fail("tail_accuracy differs between repetitions of one seed");
    if (s.to_target[i] != s.to_target[first])
      fail("rounds_to_target differs between repetitions of one seed");
  }
  for (std::size_t j = 0; j < std::min(kSubSeeds, s.reps); ++j)
    if (!(s.tails[j] >= w.accuracy_floor))
      fail("tail_accuracy " + std::to_string(s.tails[j]) +
           " is below the floor " + std::to_string(w.accuracy_floor));
  if (s.attempted != s.rounds * std::size_t(std::llround(
                                    double(w.clients) * w.participation)))
    fail("uploads attempted do not match the cohort size");
  return ok;
}

struct Metric {
  double value;
  std::string unit;
};

std::string format_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double sum_of(const std::vector<RoundPhases>& v, double RoundPhases::*field) {
  double total = 0.0;
  for (const RoundPhases& p : v) total += p.*field;
  return total;
}

std::vector<double> column(const std::vector<RoundPhases>& v,
                           double RoundPhases::*field) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const RoundPhases& p : v) out.push_back(p.*field);
  return out;
}

/// Per-layer metrics named in BENCHMARK.json: every (index, type) position
/// of the two models, so both model families report the same names; a
/// position the workload's model lacks reports 0 calls and 0 ns.
void add_layer_metrics(const Probe& probe, double rounds,
                       std::map<std::string, Metric>& m) {
  struct Position {
    std::size_t index;
    const char* type;
  };
  static const Position kPositions[] = {
      {0, "Linear"}, {0, "Conv2d"}, {1, "ReLU"},      {2, "Linear"},
      {2, "Residual"}, {3, "ReLU"}, {4, "Linear"},    {4, "MaxPool2d"},
      {5, "Linear"}};
  for (const LayerInfo& info : probe.layers()) {
    bool named = false;
    for (const Position& p : kPositions)
      named = named || (p.index == info.index && info.type == p.type);
    if (!named)
      std::cout << "warning: layer " << info.index << "." << info.type
                << " has no per-layer metric names\n";
  }
  const struct {
    Pass pass;
    Mode mode;
    const char* suffix;
  } kCombos[] = {{kFwd, kTrain, "fwd.train"},
                 {kBwd, kTrain, "bwd.train"},
                 {kFwd, kEval, "fwd.eval"}};
  for (const Position& p : kPositions) {
    const LayerInfo* info = nullptr;
    for (const LayerInfo& l : probe.layers())
      if (l.index == p.index && l.type == p.type) info = &l;
    const bool gemm = std::strcmp(p.type, "Linear") == 0 ||
                      std::strcmp(p.type, "Conv2d") == 0;
    for (const auto& c : kCombos) {
      const std::string base = "nn." + std::to_string(p.index) + "." + p.type +
                               "." + c.suffix;
      double calls = 0, ns = 0, rows = 0, flops = 0;
      if (info != nullptr) {
        const PassStats& st = info->stats[c.pass][c.mode];
        calls = double(st.calls.load());
        ns = double(st.ns.load());
        rows = double(st.rows.load());
        flops = info->flops_per_row[c.pass];
      }
      m[base + ".ns"] = {calls > 0 ? ns / calls : 0.0, "ns"};
      m[base + ".calls"] = {rounds > 0 ? calls / rounds : 0.0, "1/round"};
      if (gemm) m[base + ".gflops"] = {ns > 0 ? flops * rows / ns : 0.0, "GFLOP/s"};
    }
  }
}

/// End-to-end metrics of an untraced series.
void add_end_to_end_metrics(const Series& base, std::map<std::string, Metric>& m,
                            std::ostream& log) {
  const std::optional<double> p90 = tail_percentile(base.round_ms, 0.9);
  if (!p90) throw std::runtime_error("too few rounds for a p90");
  double tail = 0.0, to_target = 0.0;
  for (std::size_t j = 0; j < kSubSeeds; ++j) {
    tail += double(base.tails[j]) / double(kSubSeeds);
    to_target += double(base.to_target[j]) / double(kSubSeeds);
  }
  m["setup_s"] = {median(base.setup_s), "s"};
  m["round_ms_p50"] = {median(base.round_ms), "ms"};
  m["round_ms_p90"] = {*p90, "ms"};
  m["client_steps_per_s"] = {double(base.steps) / base.loop_s, "1/s"};
  m["peak_rss_kb"] = {double(peak_rss_kb()), "kB"};
  m["tail_accuracy"] = {tail, "fraction"};
  m["rounds_to_target"] = {to_target, "count"};
  m["comm_bytes_per_round"] = {double(base.bytes) / double(base.rounds), "B"};
  const std::size_t n = base.round_ms.size();
  log << "round_ms_p90 from " << n << " round samples, "
      << n - std::size_t(std::ceil(0.9 * double(n))) << " beyond it; repetitions "
      << base.reps << "\n";
}

/// Per-layer metrics of a traced series `tr` and the untraced `base` run
/// before it; false when a check fails.
bool add_per_layer_metrics(const Series& base, const Series& tr,
                           const Probe& traced, std::map<std::string, Metric>& m) {
  bool ok = true;
  for (std::size_t j = 0; j < kTracedReps; ++j)
    if (tr.hashes[j] != base.hashes[j] ||
        std::memcmp(&tr.tails[j], &base.tails[j], sizeof(float)) != 0) {
      std::cout << "CHECK FAILED: traced and untraced runs differ\n";
      ok = false;
    }
  const std::vector<RoundPhases>& ph = tr.phases;
  const double round_ns = sum_of(ph, &RoundPhases::round);
  const double uploads = sum_of(ph, &RoundPhases::local_updates);
  double unattributed = 0.0;
  for (const RoundPhases& p : ph) unattributed += p.unattributed();
  if (unattributed / round_ns > 0.05) {
    std::cout << "CHECK FAILED: spans cover under 95% of round wall time\n";
    ok = false;
  }
  const auto share = [&](double RoundPhases::*f) { return sum_of(ph, f) / round_ns; };
  const auto per_round_ms = [&](double RoundPhases::*f) {
    return median(column(ph, f)) / 1e6;
  };
  const auto per_upload_us = [&](double RoundPhases::*f) {
    return sum_of(ph, f) / uploads / 1e3;
  };
  m["fl.sample_ms"] = {per_round_ms(&RoundPhases::sample), "ms"};
  m["fl.aggregate_ms"] = {per_round_ms(&RoundPhases::aggregate), "ms"};
  m["fl.evaluate_ms"] = {per_round_ms(&RoundPhases::evaluate), "ms"};
  m["fl.upload_us"] = {per_upload_us(&RoundPhases::upload), "us"};
  m["fl.local_update_us"] = {per_upload_us(&RoundPhases::local_update), "us"};
  m["fl.local_update_self_us"] = {per_upload_us(&RoundPhases::local_update_self),
                                  "us"};
  m["fl.sample_frac"] = {share(&RoundPhases::sample), "fraction"};
  m["fl.upload_frac"] = {share(&RoundPhases::upload), "fraction"};
  m["fl.local_update_frac"] = {share(&RoundPhases::local_update), "fraction"};
  m["fl.aggregate_frac"] = {share(&RoundPhases::aggregate), "fraction"};
  m["fl.evaluate_frac"] = {share(&RoundPhases::evaluate), "fraction"};
  m["fl.round_unattributed_frac"] = {unattributed / round_ns, "fraction"};
  m["nn.round_frac"] = {share(&RoundPhases::nn_train) + share(&RoundPhases::nn_eval),
                        "fraction"};

  // Set-up stages run the same code traced or not: pool both halves.
  const auto both = [&](std::vector<double> Series::*f) {
    std::vector<double> v = base.*f;
    v.insert(v.end(), (tr.*f).begin(), (tr.*f).end());
    return median(v);
  };
  m["fl.ctor_s"] = {both(&Series::ctor_s), "s"};
  m["fl.initialize_s"] = {both(&Series::initialize_s), "s"};
  m["data.generate_s"] = {both(&Series::generate_s), "s"};
  m["data.partition_s"] = {both(&Series::partition_s), "s"};
  m["data.lazy_materialize_us"] = {tr.materialize_us, "us"};

  // From the process's first repetition, the untraced half's: later ones
  // start on heap that earlier ones freed and the allocator kept.
  m["mem.setup_rss_kb"] = {double(base.setup_rss_kb), "kB"};
  m["mem.run_growth_kb"] = {
      double(base.first_peak_kb - base.setup_rss_kb), "kB"};

  const double base_p50 = median(base.round_ms), traced_p50 = median(tr.round_ms);
  m["trace.round_ms_p50"] = {traced_p50, "ms"};
  m["trace.base_round_ms_p50"] = {base_p50, "ms"};
  m["trace.overhead_frac"] = {traced_p50 / base_p50 - 1.0, "fraction"};
  m["env.box_speed"] = {kRefNominalUs / median(tr.ref_us), "fraction"};
  add_layer_metrics(traced, double(tr.rounds), m);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");

  try {
    const double ref_before = box_probe_median_us(21);
    std::map<std::string, Metric> metrics;
    std::ostringstream log;

    Probe plain(false);
    const Series base =
        measure(*w, args.seed, args.trace ? args.seconds / 2 : args.seconds,
                args.trace ? kTracedReps : kSubSeeds + 1, plain);
    bool correct = check_series(base, *w);
    std::uint64_t attempted = base.attempted, failed = base.failed;

    if (!args.trace) {
      add_end_to_end_metrics(base, metrics, log);
    } else {
      Probe traced(true, kSpanCapacity);
      const Series tr =
          measure(*w, args.seed, args.seconds / 2, kTracedReps, traced);
      correct = check_series(tr, *w) && correct;
      correct = add_per_layer_metrics(base, tr, traced, metrics) && correct;
      attempted += tr.attempted;
      failed += tr.failed;
      if (!args.trace_out.empty() && !traced.write_chrome_trace(args.trace_out))
        std::cout << "warning: could not write " << args.trace_out << "\n";
      log << "traced rounds " << tr.rounds << ", spans logged "
          << traced.spans_logged() << ", untraced rounds " << base.rounds << "\n";
    }

    const double ref_after = box_probe_median_us(21);
    if (!correct) failed = attempted;  // a failed check fails every upload
    if (args.trace) {
      metrics["env.ref_us_before"] = {ref_before, "us"};
      metrics["env.ref_us_after"] = {ref_after, "us"};
    } else {
      metrics["delivered_frac"] = {1.0 - double(failed) / double(attempted),
                                   "fraction"};
    }
    for (const auto& [name, m] : metrics)
      if (!valid_metric_name(name))
        throw std::runtime_error("invalid metric name " + name);

    std::cout << "workload " << w->name << ", seed " << args.seed
              << ", threads 1, box probe before " << ref_before << " us, after "
              << ref_after << " us, during rounds " << median(base.ref_us)
              << " us (nominal " << kRefNominalUs << "); wall round_ms_p50 "
              << median(base.raw_round_ms) << "\n"
              << log.str();
    std::cout << format_result(correct, attempted, failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
