#include "reference.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double reference_pass_s() {
  constexpr int kRounds = 4;
  constexpr int kKeys = 1500;
  constexpr int kValues = 8;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::map<std::string, std::vector<int>> m;
    for (int i = 0; i < kKeys; ++i) {
      // 7919 is prime, so the keys arrive in a scrambled order.
      auto& v = m["group." + std::to_string(i * 7919 % kKeys) + ".member"];
      for (int j = 0; j < kValues; ++j) v.push_back(i + j);
    }
    for (const auto& [key, values] : m) acc += key.size() + values.size();
  }
  volatile std::uint64_t sink = acc;  // keeps the work observable
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
