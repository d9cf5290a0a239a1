// SendTimeRing against the map it replaced: a sender's send times kept in
// an unordered_map<seq, Time>, stored on every send and erased over
// [una, ack) on every cumulative ACK.
#include "src/transport/send_time_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>

namespace burst {
namespace {

TEST(SendTimeRing, EmptyUntilTheFirstSend) {
  SendTimeRing r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(r.snd_una(), 0);
  EXPECT_EQ(r.snd_max(), 0);
  EXPECT_EQ(r.sent_at(0), kTimeNever);
  r.record(0, 1.5);
  EXPECT_EQ(r.snd_max(), 1);
  EXPECT_DOUBLE_EQ(r.sent_at(0), 1.5);
  EXPECT_EQ(r.sent_at(1), kTimeNever);
  EXPECT_GT(r.capacity(), 0u);
}

TEST(SendTimeRing, RetransmitOverwritesAndAckForgets) {
  SendTimeRing r;
  for (int s = 0; s < 4; ++s) r.record(s, 0.25 * s);
  r.record(1, 9.0);  // a retransmission keeps the window, moves the time
  EXPECT_EQ(r.snd_max(), 4);
  EXPECT_DOUBLE_EQ(r.sent_at(1), 9.0);
  r.ack(2);
  EXPECT_EQ(r.sent_at(1), kTimeNever);
  EXPECT_DOUBLE_EQ(r.sent_at(2), 0.5);
  // An ACK past snd_max (no receiver sends one) leaves an empty window.
  r.ack(10);
  EXPECT_EQ(r.snd_max(), 10);
  EXPECT_EQ(r.sent_at(3), kTimeNever);
  r.record(10, 11.0);
  EXPECT_DOUBLE_EQ(r.sent_at(10), 11.0);
}

TEST(SendTimeRing, SizedByTheWindowSentNotBySequenceNumbers) {
  SendTimeRing r;
  // A million sequences through a window that never exceeds 5.
  Time t = 0.0;
  for (std::int64_t s = 0; s < 1'000'000; ++s) {
    r.record(s, t += 1e-3);
    if (s >= 4) r.ack(s - 3);
  }
  EXPECT_EQ(r.capacity(), 8u);
  // A window of 1000 outstanding: the ring doubles to the next power of 2.
  for (std::int64_t s = r.snd_max(); r.snd_max() - r.snd_una() < 1000; ++s) {
    r.record(s, t += 1e-3);
  }
  EXPECT_EQ(r.capacity(), 1024u);
}

// The window wraps past the ring's last slot before it outgrows the ring:
// growing moves each outstanding sequence to its slot in the larger ring.
TEST(SendTimeRing, GrowthKeepsTimesAcrossTheWrap) {
  SendTimeRing r;
  const auto when = [](std::int64_t s) {
    return 0.125 * static_cast<double>(s);
  };
  for (std::int64_t s = 0; s < 6; ++s) r.record(s, when(s));
  r.ack(5);
  // [5, 13) fills all 8 slots: 5, 6, 7, then 8..12 wrap to slots 0..4.
  for (std::int64_t s = 6; s < 13; ++s) r.record(s, when(s));
  EXPECT_EQ(r.capacity(), 8u);
  for (std::int64_t s = 5; s < 13; ++s) {
    EXPECT_EQ(r.sent_at(s), when(s)) << s;
  }
  r.record(13, when(13));  // the ninth outstanding sequence doubles it
  EXPECT_EQ(r.capacity(), 16u);
  for (std::int64_t s = 5; s < 14; ++s) {
    EXPECT_EQ(r.sent_at(s), when(s)) << s;
  }
  EXPECT_EQ(r.sent_at(4), kTimeNever);
  EXPECT_EQ(r.sent_at(14), kTimeNever);
  r.record(9, 99.0);  // a retransmission lands in the remapped slot
  EXPECT_EQ(r.sent_at(9), 99.0);
  EXPECT_EQ(r.sent_at(8), when(8));
  EXPECT_EQ(r.sent_at(10), when(10));
}

// Random scripts of the sender's four moves: a send at snd_nxt (new data,
// or a resend after a go-back-N rewind), a cumulative ACK, a rewind of
// snd_nxt to snd_una, and a SACK hole retransmit anywhere in the window.
// Bursts of new data stretch the window past the ring's size. After every
// move, sent_at agrees with the map on [snd_una - 2, snd_max + 2).
TEST(SendTimeRing, MatchesTheSendTimeMapOnRandomScripts) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 42u, 2024u}) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    SendTimeRing ring;
    std::unordered_map<std::int64_t, Time> map;
    std::int64_t una = 0, nxt = 0, max = 0;
    std::int64_t widest = 0;
    Time t = 0.0;
    const auto send = [&](std::int64_t seq) {
      t += 1e-4 * static_cast<double>(pick(1, 100));
      ring.record(seq, t);
      map[seq] = t;
      max = std::max(max, seq + 1);
    };
    for (int step = 0; step < 4000; ++step) {
      const std::int64_t move = pick(0, 99);
      if (move < 45) {
        const std::int64_t burst = move < 3 ? pick(20, 300) : 1;
        for (std::int64_t k = 0; k < burst; ++k) send(nxt++);
      } else if (move < 80) {
        if (una < max) {
          const std::int64_t ack = pick(una + 1, max);
          for (std::int64_t s = una; s < ack; ++s) map.erase(s);
          ring.ack(ack);
          una = ack;
          nxt = std::max(nxt, una);
        }
      } else if (move < 88) {
        nxt = una;  // go-back-N after a timeout
      } else if (una < max) {
        send(pick(una, max - 1));  // SACK hole
      }
      widest = std::max(widest, max - una);
      ASSERT_EQ(ring.snd_una(), una);
      ASSERT_EQ(ring.snd_max(), max);
      for (std::int64_t s = una - 2; s < max + 2; ++s) {
        const auto it = map.find(s);
        const Time want = it == map.end() ? kTimeNever : it->second;
        ASSERT_EQ(ring.sent_at(s), want)
            << "seed " << seed << " step " << step << " seq " << s;
      }
    }
    // The scripts did stretch the window past several sizes, and the ring
    // stayed a power of two no larger than twice the widest window.
    const std::size_t cap = ring.capacity();
    EXPECT_GT(widest, 64) << "seed " << seed;
    EXPECT_EQ(cap & (cap - 1), 0u);
    EXPECT_GE(cap, static_cast<std::size_t>(widest));
    EXPECT_LE(cap, 2 * static_cast<std::size_t>(widest));
  }
}

}  // namespace
}  // namespace burst
