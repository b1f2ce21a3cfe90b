// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for framing
// checkpoint payloads and journal lines: enough to distinguish a torn or
// bit-rotted file from a valid one. Not a cryptographic integrity check.
//
// Slicing-by-8 (Kounavis and Berry): eight 256-entry tables, built at
// compile time, fold eight bytes per step with eight independent lookups;
// a bytewise loop on the first table finishes the tail. The values are
// those of the bytewise CRC, and crc32 stays usable in constant
// expressions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ropus::crc {

namespace detail {
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0][b] is the CRC register step for byte b; tables[k][b] is that
/// step followed by k zero bytes, so a byte k places before the end of an
/// 8-byte block is folded by tables[k].
constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}
inline constexpr Tables kTables = make_tables();

/// Bytes `at`..`at`+3 of `data` as a little-endian word, whatever the
/// host's byte order; compilers merge the four loads into one.
constexpr std::uint32_t load32(std::string_view data, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(data[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(data[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(data[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(data[at + 3]))
             << 24;
}
}  // namespace detail

/// CRC-32 of `data` (standard init/final XOR with 0xFFFFFFFF).
constexpr std::uint32_t crc32(std::string_view data) {
  using detail::kTables;
  std::uint32_t c = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; data.size() - i >= 8; i += 8) {
    const std::uint32_t lo = c ^ detail::load32(data, i);
    const std::uint32_t hi = detail::load32(data, i + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    c = kTables[0][(c ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ropus::crc
