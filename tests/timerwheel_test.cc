// TimerWheel property tests: the wheel must behave exactly like a sorted
// list keyed by (when, seq) -- same fire order, same minimum, regardless of
// slot geometry, cascades, cancels, or how the cursor advances. The
// reference model here IS that sorted list.

#include "src/kern/timerwheel.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace fluke {
namespace {

// Entries never have their thread dereferenced by the wheel itself, so a
// fake tag pointer is enough to identify them.
Thread* Tag(uint64_t id) { return reinterpret_cast<Thread*>(id + 1); }

struct RefEntry {
  Time when;
  uint64_t seq;
  uint64_t id;
};

// The reference: a map keyed by (when, seq) -- a total order, since seqs
// are unique.
using RefModel = std::map<std::pair<Time, uint64_t>, uint64_t>;

// The wheel's exact minimum must equal the reference's (when both are
// non-empty).
void ExpectSameMinimum(TimerWheel& w, const RefModel& ref, const char* after) {
  ASSERT_EQ(w.size(), ref.size()) << after;
  if (!ref.empty()) {
    ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first) << after;
  }
}

// Drains everything due at `now` from both the wheel and the reference and
// requires identical (when, seq, id) sequences.
void DrainAndCompare(TimerWheel& w, RefModel& ref, Time now) {
  for (;;) {
    TimerWheel::Entry* e = w.PeekDue(now);
    if (e == nullptr) {
      break;
    }
    ASSERT_FALSE(ref.empty());
    const auto it = ref.begin();
    ASSERT_LE(it->first.first, now) << "wheel fired an entry the reference "
                                       "does not consider due";
    EXPECT_EQ(e->when, it->first.first);
    EXPECT_EQ(e->seq, it->first.second);
    EXPECT_EQ(e->thread, Tag(it->second));
    ref.erase(it);
    TimerWheel::Entry* popped = w.PopDue(now);
    ASSERT_EQ(popped, e);
    w.Free(popped);
  }
  // Nothing due remains in the reference either.
  if (!ref.empty()) {
    EXPECT_GT(ref.begin()->first.first, now);
  }
  EXPECT_EQ(w.size(), ref.size());
  if (!ref.empty()) {
    EXPECT_EQ(w.NextDeadline(), ref.begin()->first.first);
  }
}

TEST(TimerWheelTest, FiresInWhenSeqOrder) {
  TimerWheel w;
  RefModel ref;
  uint64_t seq = 0;
  // Equal deadlines tie-break by seq: arm several at the same tick.
  std::vector<Time> whens = {5000, 3000, 3000, 3000, 100000, 5000, 64 << 10};
  std::map<uint64_t, TimerWheel::Entry*> live;
  for (uint64_t i = 0; i < whens.size(); ++i) {
    live[i] = w.Arm(whens[i], seq, Tag(i), 0);
    ref[{whens[i], seq}] = i;
    ++seq;
  }
  DrainAndCompare(w, ref, 4000);
  DrainAndCompare(w, ref, 70000);
  DrainAndCompare(w, ref, 1 << 20);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, CancelRemovesImmediatelyAndExactly) {
  TimerWheel w;
  RefModel ref;
  std::map<uint64_t, TimerWheel::Entry*> live;
  uint64_t seq = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const Time when = 1000 + i * 7777;
    live[i] = w.Arm(when, seq, Tag(i), 0);
    ref[{when, seq}] = i;
    ++seq;
  }
  // Cancel every third entry, including the current minimum.
  for (uint64_t i = 0; i < 64; i += 3) {
    w.Cancel(live[i]);
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      if (it->second == i) {
        ref.erase(it);
        break;
      }
    }
    live.erase(i);
  }
  EXPECT_EQ(w.size(), ref.size());
  EXPECT_EQ(w.NextDeadline(), ref.begin()->first.first);
  DrainAndCompare(w, ref, 1 << 20);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, CascadeBoundaryAtCollectTargetDoesNotStrand) {
  // Regression shape for the FP-config hang: the cursor lands exactly on a
  // level-1 window boundary as Collect()'s final tick, and entries in that
  // window must not wait a whole extra rotation.
  TimerWheel w;
  // One level-0 tick is 1 << 10 ns; a level-1 window is 64 ticks. Put an
  // entry at the start of the next level-1 window...
  const Time boundary_tick = 64;  // cursor tick of the window start
  const Time when = (boundary_tick << 10) + 5;
  w.Arm(when, 0, Tag(1), 0);
  // ...advance so that Collect's target is exactly the boundary tick
  // (PeekDue(now) collects up to tick (now >> 10) + 1)...
  EXPECT_EQ(w.PeekDue((boundary_tick - 1) << 10), nullptr);
  // ...then ask for the deadline and the entry: no rotation-long stall.
  EXPECT_EQ(w.NextDeadline(), when);
  TimerWheel::Entry* e = w.PopDue(when);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->when, when);
  w.Free(e);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, OverflowEntriesCascadeBackIn) {
  TimerWheel w;
  RefModel ref;
  uint64_t seq = 0;
  // Coverage is 2^(10 + 6*8) ns; these sit on the overflow list.
  const Time huge = Time{1} << 60;
  for (uint64_t i = 0; i < 4; ++i) {
    const Time when = huge + i * 999;
    w.Arm(when, seq, Tag(i), 0);
    ref[{when, seq}] = i;
    ++seq;
  }
  // A near entry fires first; the overflow minimum is still exact.
  w.Arm(2000, seq, Tag(77), 0);
  ref[{2000, seq}] = 77;
  ++seq;
  EXPECT_EQ(w.NextDeadline(), 2000u);
  DrainAndCompare(w, ref, 4000);
  EXPECT_EQ(w.NextDeadline(), huge);
  // Advancing all the way re-places the overflow entries and fires them in
  // order.
  DrainAndCompare(w, ref, huge + 100000);
  EXPECT_TRUE(w.empty());
}

// A wheel driven in lockstep with the reference, checking NextDeadline()
// after every pop and cancel -- each pop or cancel of the minimum forces
// an exact recompute, which must skip slots that cannot win without ever
// missing one that can.
class CheckedWheel {
 public:
  void Arm(Time when) {
    const uint64_t id = next_id_++;
    live_[id] = w_.Arm(when, seq_, Tag(id), 0);
    ref_[{when, seq_}] = id;
    ++seq_;
  }
  // Cancels the live entry with the given reference rank (0 = minimum).
  void CancelRank(size_t rank) {
    auto it = ref_.begin();
    std::advance(it, static_cast<long>(rank));
    const uint64_t id = it->second;
    ref_.erase(it);
    w_.Cancel(live_.at(id));
    live_.erase(id);
    ExpectSameMinimum(w_, ref_, "cancel");
  }
  // Pops everything due at `now` one entry at a time.
  void PopDue(Time now) {
    while (TimerWheel::Entry* e = w_.PopDue(now)) {
      ASSERT_FALSE(ref_.empty());
      const auto it = ref_.begin();
      EXPECT_EQ(e->when, it->first.first);
      EXPECT_EQ(e->seq, it->first.second);
      live_.erase(it->second);
      ref_.erase(it);
      w_.Free(e);
      ExpectSameMinimum(w_, ref_, "pop");
    }
    ASSERT_TRUE(ref_.empty() || ref_.begin()->first.first > now);
  }
  size_t size() const { return ref_.size(); }
  TimerWheel& wheel() { return w_; }

 private:
  TimerWheel w_;
  RefModel ref_;
  std::map<uint64_t, TimerWheel::Entry*> live_;
  uint64_t seq_ = 0;
  uint64_t next_id_ = 0;
};

// The c1m-shaped input: two recomputes where a higher level must still be
// walked, then the storm -- 4000 clients parked for ~20 ms in one level-2 slot
// (ticks 16384..20479 at cursor 0) while a working set cycles through
// 100-163 us think-time sleeps (level 1) and sub-64-us waits (level 0), and
// the master's interrupt sweep cancels parks.
void RunC1mShapedInput(std::mt19937_64& rng) {
  constexpr Time kUs = 1000;
  {
    CheckedWheel c;
    const Time level1 = (Time{74} << 10) + 3;  // tick 74: level 1, window 64
    c.Arm(level1);
    // Cursor to tick 63, one short of the level-1 window.
    ASSERT_EQ(c.wheel().PeekDue(Time{62} << 10), nullptr);
    c.Arm((Time{126} << 10) + 5);   // tick 126, delta 63: level 0
    c.Arm((Time{63} << 10) + 100);  // the minimum, level 0
    c.CancelRank(0);  // recompute: the level-1 entry must still win
    EXPECT_EQ(c.wheel().NextDeadline(), level1);
    c.PopDue(Time{200} << 10);
    EXPECT_EQ(c.size(), 0u);
  }
  {
    // Windows are not ordered by level: with the cursor at tick 4090, level
    // 1's first window (4160) starts after the best level-0 entry (4100),
    // but level 2's (4096) does not, and its entry wins.
    CheckedWheel c;
    const Time level2 = (Time{4097} << 10) + 7;  // delta 4097: level 2
    c.Arm(level2);
    ASSERT_EQ(c.wheel().PeekDue(Time{4089} << 10), nullptr);  // cursor 4090
    c.Arm(Time{4100} << 10);         // level 0
    c.Arm(Time{4200} << 10);         // delta 110: level 1, window 4160
    c.Arm((Time{4090} << 10) + 1);  // the minimum, level 0
    c.CancelRank(0);
    EXPECT_EQ(c.wheel().NextDeadline(), level2);
    c.PopDue(Time{5000} << 10);
    EXPECT_EQ(c.size(), 0u);
  }

  // Every hop below is < 20 us, so the 3000 steps stay short of the parks.
  CheckedWheel c;
  for (int i = 0; i < 4000; ++i) {
    c.Arm(17000 * kUs + rng() % (3000 * kUs));
  }
  Time now = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng() % 100);
    if (op < 45) {
      c.Arm(now + (100 + rng() % 64) * kUs);
    } else if (op < 60) {
      c.Arm(now + 1 + rng() % (60 * kUs));
    } else if (op < 70) {
      c.CancelRank(0);
    } else if (op < 75) {
      c.CancelRank(static_cast<size_t>(rng() % c.size()));
    } else {
      now += rng() % (20 * kUs);
      c.PopDue(now);
    }
  }
  c.PopDue(now + 30000 * kUs);  // past every park
  EXPECT_EQ(c.size(), 0u);
}

TEST(TimerWheelTest, RandomizedAgainstSortedList) {
  std::mt19937_64 rng(0xf1u);
  TimerWheel w;
  RefModel ref;
  std::map<uint64_t, TimerWheel::Entry*> live;  // id -> entry
  uint64_t seq = 0;
  uint64_t next_id = 0;
  Time now = 0;
  // Deltas span every level: sub-tick to beyond the wheel's coverage.
  const Time kDeltas[] = {1,          500,        Time{1} << 12, Time{1} << 18,
                          Time{1} << 25, Time{1} << 33, Time{1} << 45,
                          Time{1} << 59};
  for (int step = 0; step < 4000; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng() % 100);
    if (op < 55 || live.empty()) {
      const Time delta = kDeltas[rng() % (sizeof(kDeltas) / sizeof(kDeltas[0]))];
      const Time when = now + 1 + rng() % (delta + 1);
      const uint64_t id = next_id++;
      live[id] = w.Arm(when, seq, Tag(id), 0);
      ref[{when, seq}] = id;
      ++seq;
    } else if (op < 75) {
      // Cancel a pseudo-random live entry.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      const uint64_t id = it->first;
      w.Cancel(it->second);
      live.erase(it);
      for (auto rit = ref.begin(); rit != ref.end(); ++rit) {
        if (rit->second == id) {
          ref.erase(rit);
          break;
        }
      }
    } else {
      // Advance: usually a small hop, sometimes a leap across levels.
      const Time hop = op < 95 ? rng() % (Time{1} << 14)
                               : rng() % (Time{1} << 34);
      now += hop;
      const size_t before = ref.size();
      DrainAndCompare(w, ref, now);
      for (auto it = live.begin(); it != live.end();) {
        if (ref.end() == std::find_if(ref.begin(), ref.end(),
                                      [&](const auto& kv) {
                                        return kv.second == it->first;
                                      })) {
          it = live.erase(it);  // fired
        } else {
          ++it;
        }
      }
      ASSERT_EQ(live.size(), ref.size());
      (void)before;
    }
    if (!ref.empty()) {
      ASSERT_EQ(w.NextDeadline(), ref.begin()->first.first) << "at step " << step;
    }
    ASSERT_EQ(w.size(), ref.size());
  }
  // Drain the tail.
  now += Time{1} << 61;
  DrainAndCompare(w, ref, now);
  EXPECT_TRUE(w.empty());

  RunC1mShapedInput(rng);
}

}  // namespace
}  // namespace fluke
