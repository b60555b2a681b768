#ifndef T5BENCH_COMMON_H_
#define T5BENCH_COMMON_H_

// Small shared vocabulary of the benchmark: the use-case classes, clocks,
// order statistics and the seeded generator that picks query instances.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace t5 {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

// The paper's use cases (Figs. 3-6) plus the embedded-API slice of its
// Section 6.1 footnote.
enum class Cls { kSearch, kXref, kDebug, kClosure, kImpact };
inline constexpr int kClassCount = 5;
inline constexpr Cls kAllClasses[kClassCount] = {
    Cls::kSearch, Cls::kXref, Cls::kDebug, Cls::kClosure, Cls::kImpact};
// The four classes that are FQL text (impact is a direct API call).
inline constexpr Cls kFqlClasses[4] = {Cls::kSearch, Cls::kXref, Cls::kDebug,
                                       Cls::kClosure};

inline const char* ClassName(Cls cls) {
  switch (cls) {
    case Cls::kSearch: return "search";
    case Cls::kXref: return "xref";
    case Cls::kDebug: return "debug";
    case Cls::kClosure: return "closure";
    case Cls::kImpact: return "impact";
  }
  return "?";
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Median as the mean of the two middle values for even counts.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// 64-bit FNV-1a; the row digest below combines two differently-finalised
// copies of it.
inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Order-independent digest of a multiset of row strings: equal multisets
// give equal digests; a dropped, added, duplicated or altered row changes
// the count or both sums (a false match needs a collision in two
// independent 64-bit sums at once).
struct RowDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mixed_sum = 0;

  void Add(std::string_view row) {
    uint64_t h = Fnv1a(row);
    uint64_t m = h ^ (h >> 29);
    m *= 0xbf58476d1ce4e5b9ull;
    m ^= m >> 32;
    ++count;
    sum += h;
    mixed_sum += m;
  }
  bool operator==(const RowDigest&) const = default;
};

// Cells of one result row are joined with this separator into its text.
inline constexpr char kCellSeparator = '\x1f';

}  // namespace t5

#endif  // T5BENCH_COMMON_H_
