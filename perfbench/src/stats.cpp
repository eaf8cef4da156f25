#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = std::size_t(std::ceil(q * double(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < min_beyond) return std::nullopt;
  return v[idx];
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::uint64_t fnv1a64(std::span<const float> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float f : values) {
    unsigned char bytes[sizeof f];
    std::memcpy(bytes, &f, sizeof f);
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

namespace {

std::uint64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0)
      return std::strtoull(line.c_str() + len, nullptr, 10);
  return 0;
}

}  // namespace

std::uint64_t rss_kb() { return status_kb("VmRSS:"); }
std::uint64_t peak_rss_kb() { return status_kb("VmHWM:"); }

}  // namespace perfbench
