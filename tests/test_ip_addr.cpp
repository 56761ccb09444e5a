#include "net/ip_addr.h"

#include <gtest/gtest.h>

namespace {

using spal::net::Ipv4Addr;
using spal::net::Ipv6Addr;

TEST(Ipv4Addr, DefaultIsZero) {
  EXPECT_EQ(Ipv4Addr{}.value(), 0u);
}

TEST(Ipv4Addr, FromOctetsPacksBigEndian) {
  EXPECT_EQ(Ipv4Addr::from_octets(192, 0, 2, 1).value(), 0xC0000201u);
  EXPECT_EQ(Ipv4Addr::from_octets(255, 255, 255, 255).value(), 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4Addr::from_octets(0, 0, 0, 1).value(), 1u);
}

TEST(Ipv4Addr, ParseValid) {
  const auto addr = Ipv4Addr::parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0x0A010203u);
}

TEST(Ipv4Addr, ParseBoundaryOctets) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Addr, ParseRejectsOctetOver255) {
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.999").has_value());
}

TEST(Ipv4Addr, ParseRejectsMissingOctets) {
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
}

TEST(Ipv4Addr, ParseRejectsTrailingJunk) {
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4 ").has_value());
}

TEST(Ipv4Addr, ParseRejectsNonNumeric) {
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..2.3").has_value());
}

TEST(Ipv4Addr, ToStringRoundTrips) {
  for (const char* text : {"0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.255"}) {
    const auto addr = Ipv4Addr::parse(text);
    ASSERT_TRUE(addr.has_value()) << text;
    EXPECT_EQ(addr->to_string(), text);
  }
}

TEST(Ipv4Addr, BitZeroIsMostSignificant) {
  const Ipv4Addr addr{0x80000000u};
  EXPECT_EQ(addr.bit(0), 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(addr.bit(i), 0) << i;
}

TEST(Ipv4Addr, BitThirtyOneIsLeastSignificant) {
  const Ipv4Addr addr{1u};
  EXPECT_EQ(addr.bit(31), 1);
  for (int i = 0; i < 31; ++i) EXPECT_EQ(addr.bit(i), 0) << i;
}

TEST(Ipv4Addr, BitsExtractsMsbAlignedField) {
  const Ipv4Addr addr = Ipv4Addr::from_octets(0xAB, 0xCD, 0xEF, 0x12);
  EXPECT_EQ(addr.bits(0, 8), 0xABu);
  EXPECT_EQ(addr.bits(8, 8), 0xCDu);
  EXPECT_EQ(addr.bits(16, 8), 0xEFu);
  EXPECT_EQ(addr.bits(24, 8), 0x12u);
  EXPECT_EQ(addr.bits(0, 16), 0xABCDu);
  EXPECT_EQ(addr.bits(0, 32), 0xABCDEF12u);
  EXPECT_EQ(addr.bits(4, 4), 0xBu);
}

TEST(Ipv4Addr, BitsWithZeroCountIsZero) {
  EXPECT_EQ(Ipv4Addr{0xFFFFFFFFu}.bits(5, 0), 0u);
}

TEST(Ipv4Addr, Ordering) {
  EXPECT_LT(Ipv4Addr{1u}, Ipv4Addr{2u});
  EXPECT_EQ(Ipv4Addr{7u}, Ipv4Addr{7u});
  EXPECT_GT(Ipv4Addr{0x80000000u}, Ipv4Addr{0x7FFFFFFFu});
}

TEST(Ipv6Addr, BitAccessSpansHalves) {
  const Ipv6Addr addr{0x8000000000000000ULL, 1ULL};
  EXPECT_EQ(addr.bit(0), 1);
  EXPECT_EQ(addr.bit(1), 0);
  EXPECT_EQ(addr.bit(63), 0);
  EXPECT_EQ(addr.bit(64), 0);
  EXPECT_EQ(addr.bit(127), 1);
}

TEST(Ipv6Addr, ToStringFullForm) {
  const Ipv6Addr addr{0x20010DB800000000ULL, 0x0000000000000001ULL};
  EXPECT_EQ(addr.to_string(), "2001:0db8:0000:0000:0000:0000:0000:0001");
}

TEST(Ipv6Addr, Ordering) {
  EXPECT_LT(Ipv6Addr(0, 1), Ipv6Addr(1, 0));
  EXPECT_EQ(Ipv6Addr(2, 3), Ipv6Addr(2, 3));
}

// The per-family bit-string helpers the templated tries are written against
// must agree between the two overload sets on the same bit strings.
TEST(AddrBitHelpers, Ipv4PrefixComparisonAtEveryLength) {
  const Ipv4Addr a{0xC0A80100u};
  const Ipv4Addr b{0xC0A801FFu};  // differs from a in the last 8 bits
  EXPECT_EQ(spal::net::common_prefix_bits(a, b), 24);
  EXPECT_EQ(spal::net::common_prefix_bits(a, a), 32);
  for (int len = 0; len <= 32; ++len) {
    EXPECT_EQ(spal::net::equal_prefix_bits(a, b, len), len <= 24) << len;
    EXPECT_TRUE(spal::net::equal_prefix_bits(a, a, len)) << len;
  }
  EXPECT_EQ(spal::net::mask_to(b, 0), Ipv4Addr{0u});
  EXPECT_EQ(spal::net::mask_to(b, 28), Ipv4Addr{0xC0A801F0u});
  EXPECT_EQ(spal::net::mask_to(b, 32), b);
}

TEST(AddrBitHelpers, SetBitsMatchesAcrossFamilies) {
  // The same field written into the top of an IPv4 and an IPv6 address.
  for (int pos = 0; pos + 5 <= 32; ++pos) {
    const Ipv4Addr v4 = spal::net::set_bits(Ipv4Addr{}, pos, 5, 0x15u);
    const Ipv6Addr v6 = spal::net::set_bits(Ipv6Addr{}, pos, 5, 0x15u);
    EXPECT_EQ(v4.bits(pos, 5), 0x15u);
    EXPECT_EQ(v6.bits(pos, 5), 0x15u);
    EXPECT_EQ(v6.hi() >> 32, v4.value()) << pos;
  }
  // IPv6 fields in the low half and straddling the halves.
  for (const int pos : {60, 62, 64, 100, 123}) {
    const Ipv6Addr v6 = spal::net::set_bits(Ipv6Addr{}, pos, 5, 0x15u);
    EXPECT_EQ(v6.bits(pos, 5), 0x15u) << pos;
    EXPECT_EQ(spal::net::mask_to(v6, pos), Ipv6Addr{}) << pos;
  }
}

}  // namespace
