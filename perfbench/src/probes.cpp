#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "fedwcm/nn/conv.hpp"
#include "fedwcm/nn/linear.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

// Set while the calling thread is inside local_update, so a layer knows
// whether it runs for local training or for evaluation, and the sum of the
// layer time spent inside that call.
thread_local bool tls_training = false;
thread_local std::int64_t tls_nn_ns = 0;

/// Forward and backward FLOPs per sample of a GEMM layer, from its shape;
/// zero for layers without GEMM work.
std::array<double, 2> gemm_flops(const nn::Layer& layer, std::size_t in_features,
                                 std::size_t out_features) {
  if (dynamic_cast<const nn::Linear*>(&layer) != nullptr) {
    const double fwd = 2.0 * double(in_features) * double(out_features);
    return {fwd, 2.0 * fwd};  // backward: weight and input gradients
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    const double weights =
        double(conv->param_count()) - double(conv->out_channels());
    const double fwd =
        2.0 * weights * double(conv->out_height() * conv->out_width());
    return {fwd, 2.0 * fwd};
  }
  return {0.0, 0.0};
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Probe::Probe(bool traced, std::size_t span_capacity)
    : traced_(traced), span_capacity_(span_capacity) {
  log_.reserve(span_capacity);
}

RepRecord& Probe::begin_rep(std::int64_t start_ns) {
  rep_ = RepRecord{};
  rep_.start_ns = start_ns;
  round_ = -1;
  return rep_;
}

nn::ModelFactory Probe::wrap_model(nn::ModelFactory base, std::size_t input_dim) {
  const nn::Sequential proto = base();
  std::vector<LayerInfo*> infos;
  std::size_t features = input_dim;
  for (std::size_t i = 0; i < proto.layer_count(); ++i) {
    const nn::Layer& layer = proto.layer(i);
    const std::size_t out = layer.output_features(features);
    auto it = std::find_if(layers_.begin(), layers_.end(), [&](const LayerInfo& l) {
      return l.index == i && l.type == layer.name();
    });
    if (it == layers_.end()) {
      LayerInfo& info = layers_.emplace_back();
      info.index = i;
      info.type = layer.name();
      info.flops_per_row = gemm_flops(layer, features, out);
      const char* pass_name[2] = {"fwd", "bwd"};
      const char* mode_name[2] = {"train", "eval"};
      for (int p = 0; p < 2; ++p)
        for (int m = 0; m < 2; ++m)
          info.span_name[p][m] = "nn." + std::to_string(i) + "." + info.type +
                                 "." + pass_name[p] + "." + mode_name[m];
      it = std::prev(layers_.end());
    }
    infos.push_back(&*it);
    features = out;
  }
  return [base = std::move(base), infos, this] {
    const nn::Sequential plain = base();
    nn::Sequential wrapped;
    for (std::size_t i = 0; i < plain.layer_count(); ++i)
      wrapped.add(std::make_unique<TimedLayer>(plain.layer(i).clone(),
                                               *infos[i], *this));
    return wrapped;
  };
}

void Probe::log_span(const char* name, std::int64_t start, std::int64_t end) {
  if (!logging_) return;
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (log_.size() < span_capacity_) log_.push_back({name, start, end, round_});
}

std::size_t Probe::spans_logged() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return log_.size();
}

bool Probe::write_chrome_trace(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    spans = log_;
  }
  // Parents by containment: spans run on one thread and nest properly, so
  // after sorting by (start, longest first) the innermost open span that
  // still covers a span's start is its parent.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::vector<std::size_t> open;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!open.empty() && spans[open.back()].end_ns < s.end_ns) open.pop_back();
    const long parent = open.empty() ? -1L : long(open.back());
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%ld,\"round\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  double(s.start_ns - origin) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, i, parent, int(s.round));
    out << buf;
    open.push_back(i);
  }
  out << "]}\n";
  return bool(out);
}

void Probe::on_local_update(std::int64_t t0, std::int64_t t1,
                            std::int64_t nn_ns, std::size_t steps) {
  steps_.fetch_add(steps, std::memory_order_relaxed);
  if (!traced_) return;
  lu_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  lu_self_ns_.fetch_add(t1 - t0 - nn_ns, std::memory_order_relaxed);
  nn_train_ns_.fetch_add(nn_ns, std::memory_order_relaxed);
  lu_calls_.fetch_add(1, std::memory_order_relaxed);
  last_train_end_ns_.store(t1, std::memory_order_relaxed);
  log_span("fl.local_update", t0, t1);
}

void Probe::on_layer(LayerInfo& info, Pass pass, std::size_t rows,
                     std::int64_t t0, std::int64_t t1) {
  const Mode mode = tls_training ? kTrain : kEval;
  PassStats& s = info.stats[pass][mode];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.ns.fetch_add(std::uint64_t(t1 - t0), std::memory_order_relaxed);
  s.rows.fetch_add(rows, std::memory_order_relaxed);
  if (mode == kTrain)
    tls_nn_ns += t1 - t0;
  else
    nn_eval_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  log_span(info.span_name[pass][mode].c_str(), t0, t1);
}

void Probe::on_upload_end(std::int64_t t) {
  if (!traced_) return;
  const std::int64_t train_end = last_train_end_ns_.exchange(0);
  if (train_end == 0) return;  // a fold already closed this upload
  upload_ns_ += t - train_end;
  log_span("fl.upload", train_end, t);
}

void Probe::add_begin_round(std::int64_t t0, std::int64_t t1) {
  sample_ns_ += t0 - round_start_ns_;
  begin_round_ns_ += t1 - t0;
  log_span("fl.sample", round_start_ns_, t0);
  log_span("fl.begin_round", t0, t1);
}

void Probe::add_aggregate(std::int64_t t0, std::int64_t t1,
                          bool ends_aggregation) {
  aggregate_ns_ += t1 - t0;
  if (ends_aggregation) aggregate_end_ns_ = t1;
}

void Probe::on_run_begin(std::int64_t t) {
  rep_.run_begin_ns = t;
  rep_.setup_rss_kb = rss_kb();
  if (traced_) log_span("setup", rep_.start_ns, t);
  rep_.begin_ref_us = box_probe_us();
  round_start_ns_ = now_ns();
  round_ = 0;
}

void Probe::on_round_begin(std::size_t sampled) { rep_.attempted += sampled; }

void Probe::on_round_end(const fl::RoundRecord& rec, std::int64_t t) {
  rep_.round_ms.push_back(double(t - round_start_ns_) / 1e6);
  rep_.accuracy.push_back(rec.test_accuracy);
  rep_.bytes += rec.bytes_up + rec.bytes_down;
  rep_.failed += rec.dropped + rec.rejected;
  if (traced_) {
    RoundPhases ph;
    ph.round = double(t - round_start_ns_);
    ph.sample = double(sample_ns_);
    ph.begin_round = double(begin_round_ns_);
    ph.local_update = double(lu_ns_.exchange(0));
    ph.local_update_self = double(lu_self_ns_.exchange(0));
    ph.nn_train = double(nn_train_ns_.exchange(0));
    ph.nn_eval = double(nn_eval_ns_.exchange(0));
    ph.local_updates = double(lu_calls_.exchange(0));
    ph.upload = double(upload_ns_);
    ph.aggregate = double(aggregate_ns_);
    if (aggregate_end_ns_ > 0) {
      ph.evaluate = double(t - aggregate_end_ns_);
      log_span("fl.evaluate", aggregate_end_ns_, t);
    }
    log_span("fl.round", round_start_ns_, t);
    rep_.phases.push_back(ph);
    sample_ns_ = begin_round_ns_ = upload_ns_ = aggregate_ns_ = 0;
    aggregate_end_ns_ = 0;
    last_train_end_ns_.store(0);
  }
  rep_.ref_us.push_back(box_probe_us());
  round_start_ns_ = now_ns();
  ++round_;
}

// ---------------------------------------------------------------------------

ProbedAlgorithm::ProbedAlgorithm(std::unique_ptr<fl::Algorithm> inner,
                                 Probe& probe)
    : inner_(std::move(inner)), probe_(probe) {}

void ProbedAlgorithm::initialize(const fl::FlContext& ctx) {
  fl::Algorithm::initialize(ctx);
  const std::int64_t t0 = now_ns();
  inner_->initialize(ctx);
  const std::int64_t t1 = now_ns();
  probe_.rep().initialize_s = double(t1 - t0) / 1e9;
  probe_.log_span("fl.initialize", t0, t1);
}

void ProbedAlgorithm::begin_round(std::size_t round,
                                  std::span<const std::size_t> sampled) {
  if (!probe_.traced()) return inner_->begin_round(round, sampled);
  const std::int64_t t0 = now_ns();
  inner_->begin_round(round, sampled);
  probe_.add_begin_round(t0, now_ns());
}

fl::LocalResult ProbedAlgorithm::local_update(std::size_t client,
                                              const fl::ParamVector& global,
                                              std::size_t round,
                                              fl::Worker& worker) {
  if (!probe_.traced()) {
    fl::LocalResult r = inner_->local_update(client, global, round, worker);
    probe_.on_local_update(0, 0, 0, r.num_steps);
    return r;
  }
  struct TrainingScope {
    TrainingScope() {
      tls_training = true;
      tls_nn_ns = 0;
    }
    ~TrainingScope() { tls_training = false; }
  };
  std::int64_t t0 = 0, t1 = 0;
  fl::LocalResult r;
  {
    TrainingScope scope;
    t0 = now_ns();
    r = inner_->local_update(client, global, round, worker);
    t1 = now_ns();
  }
  probe_.on_local_update(t0, t1, tls_nn_ns, r.num_steps);
  return r;
}

void ProbedAlgorithm::aggregate(std::span<const fl::LocalResult> results,
                                std::size_t round, fl::ParamVector& global) {
  if (!probe_.traced()) return inner_->aggregate(results, round, global);
  const std::int64_t t0 = now_ns();
  inner_->aggregate(results, round, global);
  const std::int64_t t1 = now_ns();
  probe_.add_aggregate(t0, t1, true);
  probe_.log_span("fl.aggregate", t0, t1);
}

void ProbedAlgorithm::stream_begin(std::size_t round,
                                   std::span<const std::size_t> sampled) {
  if (!probe_.traced()) return inner_->stream_begin(round, sampled);
  const std::int64_t t0 = now_ns();
  inner_->stream_begin(round, sampled);
  const std::int64_t t1 = now_ns();
  probe_.add_aggregate(t0, t1, false);
  probe_.log_span("fl.stream_begin", t0, t1);
}

void ProbedAlgorithm::stream_fold(const fl::LocalResult& r) {
  if (!probe_.traced()) return inner_->stream_fold(r);
  const std::int64_t t0 = now_ns();
  probe_.on_upload_end(t0);
  inner_->stream_fold(r);
  const std::int64_t t1 = now_ns();
  probe_.add_aggregate(t0, t1, false);
  probe_.log_span("fl.stream_fold", t0, t1);
}

void ProbedAlgorithm::stream_end(std::size_t round, fl::ParamVector& global) {
  if (!probe_.traced()) return inner_->stream_end(round, global);
  const std::int64_t t0 = now_ns();
  inner_->stream_end(round, global);
  const std::int64_t t1 = now_ns();
  probe_.add_aggregate(t0, t1, true);
  probe_.log_span("fl.stream_end", t0, t1);
}

// ---------------------------------------------------------------------------

TimedLayer::TimedLayer(std::unique_ptr<nn::Layer> inner, LayerInfo& info,
                       Probe& probe)
    : inner_(std::move(inner)), info_(info), probe_(probe) {}

void TimedLayer::forward(const nn::Matrix& in, nn::Matrix& out) {
  const std::int64_t t0 = now_ns();
  inner_->forward(in, out);
  probe_.on_layer(info_, kFwd, in.rows(), t0, now_ns());
}

void TimedLayer::backward(const nn::Matrix& grad_out, nn::Matrix& grad_in) {
  const std::int64_t t0 = now_ns();
  inner_->backward(grad_out, grad_in);
  probe_.on_layer(info_, kBwd, grad_out.rows(), t0, now_ns());
}

}  // namespace perfbench
