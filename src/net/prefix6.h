// IPv6 prefixes and routing tables — the paper's Sec. 6 extension ("SPAL is
// feasibly applicable to IPv6"; Sec. 4 notes the SRAM reduction "will be
// much larger under IPv6").
//
// Prefix6 mirrors the IPv4 Prefix (prefix.h) at 128 bits: tri-state bit
// access for the partitioner and prefix matching. The IPv6 routing table is
// route_table.h's BasicRouteTable instantiated on Ipv6Addr.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <random>
#include <string>

#include "net/ip_addr.h"
#include "net/prefix.h"
#include "net/route_table.h"

namespace spal::net {

/// An IPv6 prefix: `length` leading bits of `addr` (low bits zeroed).
class Prefix6 {
 public:
  static constexpr int kMaxLength = 128;

  constexpr Prefix6() = default;

  constexpr Prefix6(Ipv6Addr addr, int length)
      : hi_(addr.hi() & hi_mask(length)),
        lo_(addr.lo() & lo_mask(length)),
        length_(static_cast<std::uint8_t>(length)) {}

  constexpr Ipv6Addr address() const { return Ipv6Addr{hi_, lo_}; }
  constexpr int length() const { return length_; }

  /// Tri-state bit at MSB-relative position `pos`: kStar iff pos >= length.
  constexpr PrefixBit bit(int pos) const {
    if (pos >= length_) return PrefixBit::kStar;
    return address().bit(pos) ? PrefixBit::kOne : PrefixBit::kZero;
  }

  constexpr bool matches(const Ipv6Addr& addr) const {
    return ((addr.hi() ^ hi_) & hi_mask(length_)) == 0 &&
           ((addr.lo() ^ lo_) & lo_mask(length_)) == 0;
  }

  constexpr bool covers(const Prefix6& other) const {
    return length_ <= other.length_ && matches(other.address());
  }

  /// "<full hex groups>/len".
  std::string to_string() const {
    return address().to_string() + "/" + std::to_string(length_);
  }

  /// Parses the full-form notation produced by to_string()
  /// ("xxxx:xxxx:...:xxxx/len"); nullopt on any syntax error.
  static std::optional<Prefix6> parse(std::string_view text);

  friend constexpr auto operator<=>(const Prefix6&, const Prefix6&) = default;

 private:
  static constexpr std::uint64_t hi_mask(int length) {
    if (length <= 0) return 0;
    if (length >= 64) return ~std::uint64_t{0};
    return ~std::uint64_t{0} << (64 - length);
  }
  static constexpr std::uint64_t lo_mask(int length) {
    if (length <= 64) return 0;
    if (length >= 128) return ~std::uint64_t{0};
    return ~std::uint64_t{0} << (128 - length);
  }

  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
  std::uint8_t length_ = 0;
};

extern template class BasicRouteTable<Ipv6Addr>;

using RouteEntry6 = BasicRouteEntry<Ipv6Addr>;
using RouteTable6 = BasicRouteTable<Ipv6Addr>;

/// Synthetic IPv6 BGP-like table: mass concentrated on /48 and /32 with the
/// /29-/44 body and a /64+ tail observed in global v6 tables, within the
/// 2000::/3 global-unicast space.
struct TableGen6Config {
  std::size_t size = 20'000;
  std::uint64_t seed = 1;
  std::uint32_t next_hops = 16;
  double nested_fraction = 0.30;

  /// Per-length weights (index = prefix length 0..128) shaped after global
  /// IPv6 BGP tables; v6 update streams draw announcement lengths from the
  /// same model.
  static std::array<double, Prefix6::kMaxLength + 1> default_length_weights();
};

RouteTable6 generate_table6(const TableGen6Config& config);

/// Modern-internet stand-in: `size` prefixes (default the ~220k-route IPv6
/// table of the mid-2020s BGP default-free zone).
RouteTable6 make_rt6_internet(std::size_t size = 220'000);

/// Uniformly random address inside `prefix` (host bits randomized).
Ipv6Addr random_address_in(const Prefix6& prefix, std::mt19937_64& rng);

}  // namespace spal::net
