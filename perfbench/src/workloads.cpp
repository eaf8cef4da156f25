#include "workloads.hpp"

#include "fedwcm/core/rng.hpp"
#include "fedwcm/data/longtail.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr double kImbalance = 0.1;
constexpr double kBeta = 0.1;
/// The datasets are fixed, as in fedwcm_run: one corpus per workload, with
/// the partition and the run drawn from the benchmark seed.
constexpr std::uint64_t kDataSeed = 42;

}  // namespace

const std::vector<Workload>& workloads() {
  // Each target sits on the rising part of its accuracy curve (reached
  // near round 20-30); the rounds per repetition leave room past it, so
  // the tail mean is taken near the plateau. The floors sit far above
  // chance (0.1) and far below every tail accuracy measured.
  static const std::vector<Workload> kAll = {
      {"paper_mlp", false, false, 100, 0.1, 60, 0.60f, 0.40f},
      {"paper_conv", true, false, 100, 0.1, 50, 0.60f, 0.40f},
      {"million_lazy_int8", false, true, 1000000, 0.0001, 60, 0.60f, 0.40f},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Instance::Instance(const Workload& w, std::uint64_t seed, std::size_t threads,
                   const ModelWrap& wrap) {
  const std::uint64_t partition_seed = fedwcm::core::derive_seed(seed, 0x9A27);
  times_.begin_ns = now_ns();
  if (w.conv) {
    spec_ = data::synthetic_tiny_images();
  } else {
    // fedwcm_run's CIFAR-10 analog settings.
    spec_ = data::synthetic_cifar10();
    spec_.class_separation = 4.5f;
    spec_.noise = 0.9f;
  }
  tt_ = data::generate(spec_, kDataSeed);
  subset_ = data::longtail_subsample(tt_.train, kImbalance, kDataSeed);
  times_.generated_ns = now_ns();

  config_.num_clients = w.clients;
  config_.participation = w.participation;
  config_.rounds = w.rounds;
  config_.local_epochs = 5;
  config_.batch_size = 10;
  config_.local_lr = 0.1f;
  config_.seed = seed;
  config_.eval_every = 1;
  config_.threads = threads;
  if (w.lazy) {
    config_.stream_aggregation = true;
    config_.uplink = fedwcm::core::Codec::kInt8;
    config_.error_feedback = true;
    data::LazySpec lspec;
    lspec.num_clients = w.clients;
    lspec.beta = kBeta;
    lspec.seed = partition_seed;
    lazy_.emplace(tt_.train, subset_, lspec);
  } else {
    partition_ = data::partition_equal_quantity(tt_.train, subset_, w.clients,
                                                kBeta, partition_seed);
  }
  times_.partitioned_ns = now_ns();

  nn::ModelFactory factory =
      w.conv ? nn::mini_convnet_factory(spec_.channels, spec_.height,
                                        spec_.width, spec_.num_classes, 8)
             : nn::mlp_factory(spec_.input_dim, {32, 32}, spec_.num_classes);
  if (wrap) factory = wrap(std::move(factory), spec_.input_dim);
  if (lazy_)
    sim_.emplace(config_, tt_.train, tt_.test, *lazy_, std::move(factory),
                 fl::cross_entropy_loss_factory());
  else
    sim_.emplace(config_, tt_.train, tt_.test, partition_, std::move(factory),
                 fl::cross_entropy_loss_factory());
  times_.constructed_ns = now_ns();
}

}  // namespace perfbench
