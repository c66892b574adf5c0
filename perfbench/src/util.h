#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file util.h
/// Small helpers shared by the benchmark program: a portable seeded
/// generator (so a sequence is the same on every standard library), a
/// stable digest, clocks and order statistics.

namespace perfbench {

/// SplitMix64: a tiny generator whose output depends only on the seed,
/// unlike the distributions of <random>, whose algorithms vary between
/// standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n) for n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// FNV-1a 64 over a byte string, chainable through `hash`.
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t hash = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

inline std::string Hex64(uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
