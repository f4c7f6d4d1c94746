#include "common/digest.hpp"

namespace reshape {

Digest64& Digest64::update(std::string_view data) {
  for (const char c : data) {
    hash_ ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash_ *= kPrime;
  }
  return *this;
}

std::uint64_t digest_bytes(std::string_view data) {
  return Digest64().update(data).value();
}

}  // namespace reshape
