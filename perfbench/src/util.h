// Small helpers shared by the benchmark's files: a seeded generator that
// does not depend on the program's own RNG, wall-clock timing, order
// statistics and JSON number formatting.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace propeller {
namespace core {}
namespace index {}
namespace net {}
namespace obs {}
namespace sim {}
namespace workload {}
}  // namespace propeller

namespace perfbench {

namespace core = propeller::core;
namespace index = propeller::index;
namespace net = propeller::net;
namespace obs = propeller::obs;
namespace sim = propeller::sim;
namespace workload = propeller::workload;

// SplitMix64: small, fast and identical on every platform, so a seed
// names the same inputs everywhere.
class Gen {
 public:
  explicit Gen(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Unit(); }
  // Uniform integer in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

 private:
  uint64_t s_;
};

// Derives an independent stream seed from the run seed and a label.
inline uint64_t SubSeed(uint64_t seed, uint64_t label) {
  Gen g(seed * 0x100000001b3ull ^ label);
  g.Next();
  return g.Next();
}

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

namespace detail {

// Continued fraction of the regularized incomplete beta function
// (modified Lentz).
inline double BetaFraction(double a, double b, double x) {
  const double tiny = 1e-300;
  double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
  double h = d;
  for (int m = 1; m < 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 + aa * d;
    c = 1.0 + aa / c;
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    c = std::fabs(c) < tiny ? tiny : c;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 + aa * d;
    c = 1.0 + aa / c;
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    c = std::fabs(c) < tiny ? tiny : c;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-14) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
inline double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * BetaFraction(a, b, x) / a;
  return 1.0 - front * BetaFraction(b, a, 1.0 - x) / b;
}

}  // namespace detail

// Harrell-Davis estimate of the p-th percentile (p in (0, 100)); 0 for an
// empty sample.  It weighs every order statistic by a Beta distribution
// centred on the percentile, so on costs that come in discrete steps (a
// disk seek more or less) it moves smoothly instead of jumping from one
// step to the next as the nearest-rank value does.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q = p / 100.0;
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0, below = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double upto = detail::IncompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * v[i];
    below = upto;
  }
  return estimate;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Shortest text that reads back as the same double.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
