#pragma once
/// \file workloads.hpp
/// The benchmark's three canonical FedWCM workloads and the staged set-up
/// that builds one instance of them. Every workload runs FedWCM at IF 0.1,
/// Dirichlet beta 0.1, 5 local epochs, batch 10, lr 0.1, one thread, and
/// evaluates every round; README.md gives the reasons for each choice.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fedwcm/data/lazy.hpp"
#include "fedwcm/data/partition.hpp"
#include "fedwcm/data/synthetic.hpp"
#include "fedwcm/fl/simulation.hpp"

namespace perfbench {

namespace fl = fedwcm::fl;
namespace data = fedwcm::data;
namespace nn = fedwcm::nn;

struct Workload {
  std::string name;
  bool conv = false;  ///< MiniConvNet on the 1x8x8 analog, else the MLP.
  bool lazy = false;  ///< Lazy clients, stream fold and int8 uplink with EF.
  std::size_t clients = 100;
  double participation = 0.1;
  std::size_t rounds = 0;         ///< Rounds in one repetition.
  float target_accuracy = 0.0f;   ///< rounds_to_target threshold.
  float accuracy_floor = 0.0f;    ///< tail_accuracy must reach it.
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr when `name` names no workload.
const Workload* find_workload(const std::string& name);

/// Stage boundaries of one instance's set-up, steady_clock nanoseconds:
/// data::generate plus the long-tail subsample, then the eager partition or
/// LazyPartition constructor, then the fl::Simulation constructor.
struct SetupTimes {
  std::int64_t begin_ns = 0;
  std::int64_t generated_ns = 0;
  std::int64_t partitioned_ns = 0;
  std::int64_t constructed_ns = 0;
};

/// One ready-to-run instance of a workload: data, partition and engine.
/// The partition and the run derive from `seed`, the dataset is fixed;
/// equal seeds give bitwise-equal runs.
class Instance {
 public:
  /// Wraps the workload's model factory, given the model's input feature
  /// count (the traced run's layer decorator); empty for untraced runs.
  using ModelWrap =
      std::function<nn::ModelFactory(nn::ModelFactory, std::size_t)>;

  Instance(const Workload& w, std::uint64_t seed, std::size_t threads,
           const ModelWrap& wrap);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  fl::Simulation& simulation() { return *sim_; }
  const SetupTimes& setup_times() const { return times_; }

 private:
  data::SyntheticSpec spec_;
  fl::FlConfig config_;
  data::TrainTest tt_;
  std::vector<std::size_t> subset_;
  data::Partition partition_;
  std::optional<data::LazyPartition> lazy_;
  std::optional<fl::Simulation> sim_;
  SetupTimes times_;
};

}  // namespace perfbench
