// CRC-32 as journal frames and checkpoint payloads use it: the standard
// check value, at compile time and at run time, and agreement with a
// bitwise reference at every length and alignment around the 8-byte step.
#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace ropus::crc {
namespace {

static_assert(crc32("123456789") == 0xCBF43926u);
static_assert(crc32("") == 0u);

/// The polynomial applied one bit at a time: no tables to get wrong.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.uniform_index(256));
  return bytes;
}

TEST(Crc32, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(check), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view()), 0u);
}

TEST(Crc32, MatchesBitwiseAtEveryShortLengthAndOffset) {
  const std::string bytes = seeded_bytes(64 + 8, 32);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view data =
          std::string_view(bytes).substr(offset, len);
      EXPECT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBitwiseOnOneMebibyte) {
  const std::string bytes = seeded_bytes(std::size_t{1} << 20, 2006);
  EXPECT_EQ(crc32(bytes), crc32_bitwise(bytes));
}

}  // namespace
}  // namespace ropus::crc
