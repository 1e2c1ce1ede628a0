#ifndef WMP_UTIL_HASH_H_
#define WMP_UTIL_HASH_H_

/// \file hash.h
/// Shared non-cryptographic hashing primitives for the serving layer:
/// query/workload content fingerprints (the histogram-cache key), tenant
/// routing, and the publish-frame artifact checksum
/// (net::ArtifactChecksum). The last one crosses the wire, so the byte
/// hash is part of the protocol: HashBytes consumes its input as
/// little-endian 8-byte words, which is bit-stable on every platform the
/// wire protocol itself supports (the protocol is little-endian
/// throughout). Nothing here is suitable where an adversary controls the
/// input — these are integrity and distribution hashes, not MACs.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace wmp::util {

/// splitmix64 finalizer: cheap, well-mixed, and stable across platforms.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Little-endian 8-byte word at `p` (unaligned).
inline uint64_t LoadWord(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Word-at-a-time content hash. Fingerprinting sits on the serving hot
/// path (the server recomputes every received record's fingerprint, and
/// workload keys combine them), so bytes are consumed eight at a time
/// rather than with a byte-loop FNV. An input of 32 bytes or more first
/// runs four independent splitmix64 chains over its 32-byte blocks (one
/// word per lane), which the CPU overlaps, and folds the lanes into the
/// state; every input then takes one round per remaining word and one for
/// the byte tail. An input under 32 bytes never enters the lanes: tenant
/// names route to shards and nodes by these values, which util_test's
/// HashBytesGoldenValues pins for short and long inputs alike.
inline uint64_t HashBytes(const void* data, size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (0x9E3779B97F4A7C15ull * (len + 1));
  size_t i = 0;
  if (len >= 32) {
    uint64_t lane[4] = {h, h ^ 0xA0761D6478BD642Full,
                        h ^ 0xE7037ED1A0B428DBull, h ^ 0x8EBC6AF09C88C6E3ull};
    for (; i + 32 <= len; i += 32) {
      for (size_t l = 0; l < 4; ++l) {
        lane[l] = Mix64(lane[l] ^ LoadWord(p + i + 8 * l));
      }
    }
    for (uint64_t v : lane) h = Mix64(h ^ v);
  }
  for (; i + 8 <= len; i += 8) h = Mix64(h ^ LoadWord(p + i));
  uint64_t tail = 0;
  for (size_t shift = 0; i < len; ++i, shift += 8) {
    tail |= static_cast<uint64_t>(p[i]) << shift;
  }
  return Mix64(h ^ tail);
}

/// Convenience overload for string keys (tenant routing).
inline uint64_t HashString(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

}  // namespace wmp::util

#endif  // WMP_UTIL_HASH_H_
