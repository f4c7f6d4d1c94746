// 64-bit content digests for end-to-end block integrity.
//
// The reshape layer stamps every merged block with a digest at
// merge/materialize time; the data plane re-checks it after every
// simulated transfer, so silent payload corruption (cloud/faults) is
// caught and re-fetched instead of propagating into results.  FNV-1a is
// used: it is not cryptographic, but it is deterministic across
// platforms, cheap enough to run per block, and 64 bits is plenty to make
// an injected corruption visible.
#pragma once

#include <cstdint>
#include <string_view>

namespace reshape {

/// Streaming FNV-1a 64-bit digest.
class Digest64 {
 public:
  Digest64& update(std::string_view data);
  /// Inline: the merge digests every file id as it places it.
  Digest64& update_u64(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffULL;
      hash_ *= kPrime;
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One-shot digest of a byte string.
[[nodiscard]] std::uint64_t digest_bytes(std::string_view data);

}  // namespace reshape
