#pragma once
/// \file probes.hpp
/// The benchmark's read-only hooks into the program, all built on public
/// interfaces so the program itself stays untouched:
///
///  * `ProbedAlgorithm` decorates an `fl::Algorithm` and counts local steps
///    (always) and times its calls (traced runs);
///  * `TimedLayer` decorates one `nn::Layer` of the model and times its
///    forward and backward passes, split by local training vs evaluation;
///  * `RoundClock` is a `RoundObserver` that marks round boundaries.
///
/// All three feed one `Probe`. Phases the program has no call for are the
/// gaps between hooks, on the one-thread schedule the benchmark runs:
/// sampling is round start -> begin_round, upload is local_update return ->
/// stream_fold or on_aggregate, evaluation is aggregation end -> round end.
/// Counters are atomics, so the hooks stay exact when several workers train
/// at once; the gap phases assume one worker.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fedwcm/fl/algorithm.hpp"
#include "fedwcm/fl/observer.hpp"

namespace perfbench {

namespace fl = fedwcm::fl;
namespace nn = fedwcm::nn;

/// steady_clock in nanoseconds.
std::int64_t now_ns();

enum Pass { kFwd = 0, kBwd = 1 };
enum Mode { kTrain = 0, kEval = 1 };

/// Counters of one layer pass in one mode.
struct PassStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> rows{0};  ///< Samples the calls processed.
};

/// One position of the model; shared by every clone of that position
/// (the workers' models and the evaluation model).
struct LayerInfo {
  std::size_t index = 0;
  std::string type;                       ///< Layer::name().
  std::array<double, 2> flops_per_row{};  ///< fwd, bwd; 0 without GEMM work.
  std::array<std::array<PassStats, 2>, 2> stats;  ///< [pass][mode].
  std::array<std::array<std::string, 2>, 2> span_name;
};

/// A finished span. Parents are found by containment when the log is
/// written out.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t round = -1;  ///< -1 during set-up.
};

/// Per-round phase sums of a traced run, in nanoseconds.
struct RoundPhases {
  double round = 0, sample = 0, begin_round = 0, local_update = 0,
         local_update_self = 0, upload = 0, aggregate = 0, evaluate = 0,
         nn_train = 0, nn_eval = 0, local_updates = 0;
  /// Wall time no span covers.
  double unattributed() const {
    return round - (sample + begin_round + local_update + upload + aggregate +
                    evaluate);
  }
};

/// What one repetition of a workload measured.
struct RepRecord {
  std::int64_t start_ns = 0;      ///< Set-up start, set by the caller.
  std::int64_t run_begin_ns = 0;  ///< on_run_begin.
  double initialize_s = 0.0;
  std::uint64_t setup_rss_kb = 0;  ///< VmRSS at on_run_begin.
  double begin_ref_us = 0.0;      ///< Box probe at on_run_begin.
  std::vector<double> round_ms;   ///< Gaps between round ends.
  std::vector<double> ref_us;     ///< Box probe after each round.
  std::vector<float> accuracy;    ///< Test accuracy of every round.
  std::uint64_t bytes = 0;        ///< Uplink plus downlink, all rounds.
  std::uint64_t attempted = 0;    ///< Uploads sampled.
  std::uint64_t failed = 0;       ///< Dropped or rejected uploads.
  std::vector<RoundPhases> phases;  ///< Traced runs only.
};

/// Shared state of the three hooks.
class Probe {
 public:
  /// `traced` turns on span timing; `span_capacity` bounds the span log.
  explicit Probe(bool traced, std::size_t span_capacity = 0);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool traced() const { return traced_; }

  /// Starts a repetition; its record stays valid until the next call.
  RepRecord& begin_rep(std::int64_t start_ns);
  RepRecord& rep() { return rep_; }

  /// Local steps (sum of LocalResult::num_steps) over the probe's lifetime.
  std::uint64_t steps() const { return steps_.load(); }

  /// Wraps `base` so every model it builds has each layer in a TimedLayer.
  nn::ModelFactory wrap_model(nn::ModelFactory base, std::size_t input_dim);
  const std::deque<LayerInfo>& layers() const { return layers_; }

  /// Span log: rounds are logged until the capacity is reached.
  void log_span(const char* name, std::int64_t start, std::int64_t end);
  void set_logging(bool on) { logging_ = on; }
  /// Writes the log as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;
  std::size_t spans_logged() const;

  // Hook entry points (see the classes below).
  void on_local_update(std::int64_t t0, std::int64_t t1, std::int64_t nn_ns,
                       std::size_t steps);
  void on_layer(LayerInfo& info, Pass pass, std::size_t rows, std::int64_t t0,
                std::int64_t t1);
  void on_upload_end(std::int64_t t);
  void add_begin_round(std::int64_t t0, std::int64_t t1);
  void add_aggregate(std::int64_t t0, std::int64_t t1, bool ends_aggregation);
  void on_run_begin(std::int64_t t);
  void on_round_begin(std::size_t sampled);
  void on_round_end(const fl::RoundRecord& rec, std::int64_t t);

 private:
  const bool traced_;
  const std::size_t span_capacity_;
  std::atomic<std::uint64_t> steps_{0};
  std::deque<LayerInfo> layers_;  ///< Stable addresses for the decorators.
  RepRecord rep_;

  // Current round, traced runs. Atomics where local_update may write them.
  std::int64_t round_start_ns_ = 0;
  std::int64_t aggregate_end_ns_ = 0;
  std::atomic<std::int64_t> last_train_end_ns_{0};
  std::atomic<std::int64_t> lu_ns_{0}, lu_self_ns_{0}, nn_train_ns_{0},
      nn_eval_ns_{0}, lu_calls_{0};
  std::int64_t sample_ns_ = 0, begin_round_ns_ = 0, upload_ns_ = 0,
               aggregate_ns_ = 0;
  std::int32_t round_ = -1;

  bool logging_ = false;
  mutable std::mutex log_mutex_;
  std::vector<Span> log_;
};

/// fl::Algorithm decorator: forwards every call to `inner` unchanged.
class ProbedAlgorithm final : public fl::Algorithm {
 public:
  ProbedAlgorithm(std::unique_ptr<fl::Algorithm> inner, Probe& probe);

  std::string name() const override { return inner_->name(); }
  void initialize(const fl::FlContext& ctx) override;
  void begin_round(std::size_t round,
                   std::span<const std::size_t> sampled) override;
  fl::LocalResult local_update(std::size_t client, const fl::ParamVector& global,
                               std::size_t round, fl::Worker& worker) override;
  void aggregate(std::span<const fl::LocalResult> results, std::size_t round,
                 fl::ParamVector& global) override;
  bool supports_streaming() const override {
    return inner_->supports_streaming();
  }
  void stream_begin(std::size_t round,
                    std::span<const std::size_t> sampled) override;
  void stream_fold(const fl::LocalResult& r) override;
  void stream_end(std::size_t round, fl::ParamVector& global) override;
  float current_alpha() const override { return inner_->current_alpha(); }
  float momentum_norm() const override { return inner_->momentum_norm(); }
  const fl::ParamVector* momentum_vector() const override {
    return inner_->momentum_vector();
  }
  std::size_t broadcast_floats() const override {
    return inner_->broadcast_floats();
  }
  void save_state(fedwcm::core::BinaryWriter& writer) const override {
    inner_->save_state(writer);
  }
  void load_state(fedwcm::core::BinaryReader& reader) override {
    inner_->load_state(reader);
  }

 private:
  std::unique_ptr<fl::Algorithm> inner_;
  Probe& probe_;
};

/// nn::Layer decorator: forwards every call to `inner` unchanged.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::unique_ptr<nn::Layer> inner, LayerInfo& info, Probe& probe);

  void forward(const nn::Matrix& in, nn::Matrix& out) override;
  void backward(const nn::Matrix& grad_out, nn::Matrix& grad_in) override;
  void set_workspace(nn::Workspace* ws) override {
    nn::Layer::set_workspace(ws);
    inner_->set_workspace(ws);
  }
  std::size_t param_count() const override { return inner_->param_count(); }
  void copy_params_to(std::span<float> dst) const override {
    inner_->copy_params_to(dst);
  }
  void set_params(std::span<const float> src) override {
    inner_->set_params(src);
  }
  void copy_grads_to(std::span<float> dst) const override {
    inner_->copy_grads_to(dst);
  }
  void zero_grads() override { inner_->zero_grads(); }
  void init_params(fedwcm::core::Rng& rng) override { inner_->init_params(rng); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<TimedLayer>(inner_->clone(), info_, probe_);
  }
  std::size_t output_features(std::size_t input_features) const override {
    return inner_->output_features(input_features);
  }

 private:
  std::unique_ptr<nn::Layer> inner_;
  LayerInfo& info_;
  Probe& probe_;
};

/// Marks round boundaries for the probe. Each boundary also runs the box
/// probe (stats.hpp) outside the timed gaps: the next round starts after it.
class RoundClock final : public fl::RoundObserver {
 public:
  explicit RoundClock(Probe& probe) : probe_(probe) {}

  void on_run_begin(const fl::FlContext&, const std::string&) override {
    probe_.on_run_begin(now_ns());
  }
  void on_round_begin(std::size_t, std::span<const std::size_t> sampled) override {
    probe_.on_round_begin(sampled.size());
  }
  void on_aggregate(std::size_t, const fl::Algorithm&,
                    std::span<const fl::LocalResult>, const fl::ParamVector&,
                    fl::RoundRecord&) override {
    probe_.on_upload_end(now_ns());
  }
  void on_round_end(const fl::RoundRecord& rec) override {
    probe_.on_round_end(rec, now_ns());
  }

 private:
  Probe& probe_;
};

}  // namespace perfbench
