// FNV-1a over raw bytes, folded a machine word at a time: the one hash
// the result cache keys and checksums with and the query index
// checksums its nodes with.
//
// Each step (xor a word or a tail byte into the state, then multiply by
// the odd FNV prime) is a bijection of the 64-bit state, so flipping any
// one byte of the input changes the result -- the property the cache's
// poisoning detector and the index's corruption check rely on.  Folding
// 8-byte words makes a pass about eight times shorter than the byte-wise
// FNV-1a it replaces; the values differ from byte-wise FNV-1a, but no
// hash is stored across processes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pmonge::support {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Continue the hash `h` over `n` bytes at `p`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, b + i, sizeof w);
    h ^= w;
    h *= kFnvPrime;
  }
  for (; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The hash of `s` from the offset basis.
inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(kFnvOffset, s.data(), s.size());
}

}  // namespace pmonge::support
