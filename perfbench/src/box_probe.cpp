#include <array>

#include "probes.hpp"
#include "stats.hpp"

namespace perfbench {

double box_probe_us() {
  // Forty SGD steps of a fixed 32->32 dense layer on a batch of 10: the
  // instruction mix of the workloads' small layers (vectorized multiply-adds,
  // a data-dependent ReLU mask, a weight update), in code the program cannot
  // change. On a shared host the speed one thread gets swings by up to 2x
  // with what the other tenants run. This loop slows with it as the
  // workloads do: scaled by it, paper_mlp's round time stayed within 1.5%
  // where the raw time moved 30%, while a plain vector loop or a scalar
  // multiply-add chain left 15-25% of the swing in.
  constexpr int kBatch = 10, kIn = 32, kOut = 32;
  static thread_local std::array<float, kBatch * kIn> x;
  static thread_local std::array<float, kIn * kOut> w, gw;
  static thread_local std::array<float, kBatch * kOut> y, g;
  for (int i = 0; i < kBatch * kIn; ++i) x[i] = float(i % 11) * 0.1f - 0.5f;
  for (int i = 0; i < kIn * kOut; ++i) w[i] = float(i % 13) * 0.01f - 0.06f;

  const std::int64_t t0 = now_ns();
  for (int step = 0; step < 40; ++step) {
    for (int b = 0; b < kBatch; ++b) {
      for (int o = 0; o < kOut; ++o) y[b * kOut + o] = 0.0f;
      for (int i = 0; i < kIn; ++i) {
        const float xv = x[b * kIn + i];
        for (int o = 0; o < kOut; ++o) y[b * kOut + o] += xv * w[i * kOut + o];
      }
    }
    for (int k = 0; k < kBatch * kOut; ++k) g[k] = y[k] > 0.0f ? y[k] * 0.1f : 0.0f;
    for (int i = 0; i < kIn; ++i)
      for (int o = 0; o < kOut; ++o) {
        float acc = 0.0f;
        for (int b = 0; b < kBatch; ++b) acc += x[b * kIn + i] * g[b * kOut + o];
        gw[i * kOut + o] = acc;
      }
    for (int i = 0; i < kIn * kOut; ++i) w[i] -= 0.01f * gw[i];
  }
  const std::int64_t t1 = now_ns();
  volatile float sink = w[kIn * kOut / 3];
  (void)sink;
  return double(t1 - t0) / 1e3;
}

}  // namespace perfbench
