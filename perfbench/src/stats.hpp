#pragma once
/// \file stats.hpp
/// Summary statistics, output checks and process readings for perfbench.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); NaN when
/// empty.
double median(std::vector<double> v);

/// Nearest-rank `q`-quantile, refused (nullopt) unless at least
/// `min_beyond` samples lie strictly past its rank: a p90 needs 100 samples.
std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond = 10);

/// Whether `name` is a valid metric name: 1 to 64 of [A-Za-z0-9_.-],
/// starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// FNV-1a 64 over the bytes of `values`.
std::uint64_t fnv1a64(std::span<const float> values);

/// VmRSS and VmHWM of this process in kB (0 when /proc is unavailable).
std::uint64_t rss_kb();
std::uint64_t peak_rss_kb();

/// Box-speed probe: microseconds one fixed reference loop takes (about 32
/// at full speed). Defined in box_probe.cpp, built with fixed flags.
double box_probe_us();

}  // namespace perfbench
