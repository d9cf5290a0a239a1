#include "src/net/packet.hpp"

#include <gtest/gtest.h>

namespace burst {
namespace {

TEST(Packet, DefaultsAreInert) {
  Packet p;
  EXPECT_EQ(p.type, PacketType::kData);
  EXPECT_EQ(p.seq, -1);
  EXPECT_EQ(p.ack, -1);
  EXPECT_FALSE(p.retransmit);
}

TEST(Packet, WireSizeConstants) {
  // The reproduction's header model (DESIGN.md §3).
  EXPECT_EQ(kHeaderBytes, 40);
  EXPECT_EQ(kDefaultPayloadBytes + kHeaderBytes, 1040);
  EXPECT_EQ(kAckBytes, 40);
}

}  // namespace
}  // namespace burst
