// The splitmix64 finalizer: a bijective 64-bit mixer that diffuses
// every input bit into every output bit. Lock-key hashing, the fault
// injector's schedule and the client's retry jitter all draw from it,
// so seeded runs of each stay reproducible bit for bit.
#pragma once

#include <cstdint>

namespace curare::runtime {

inline constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace curare::runtime
