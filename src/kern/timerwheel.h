// Hierarchical timing wheel for thread timeouts (clock_sleep and friends).
//
// The shared EventQueue is a binary heap: fine for the handful of device
// events (timer ticks, disk completions), but O(log n) per operation and
// with no way to delete a cancelled entry -- cancelled timeouts used to
// linger and fire as no-ops. Under a 100k-thread timeout storm the heap and
// its dead entries become the hot structure. The wheel makes arm, cancel
// and fire O(1) amortized, and cancel frees the entry immediately.
//
// Shape: kLevels levels of kSlots slots; a level-0 slot spans 2^kGranBits
// ns (~1 us) and each higher level spans kSlots times the one below. An
// entry is placed by its delta from the wheel cursor; as the cursor crosses
// a higher-level slot boundary that slot's entries cascade down. Entries
// whose delta exceeds the whole wheel sit on an overflow list.
//
// Window-start lower bound. Every entry in a slot has a tick at or after
// the start of the window that slot currently stands for: a level-0 slot
// is exactly one tick, and a level-L slot holds only entries placed (or
// cascaded) into the 64^L-tick window that begins where the cursor will
// next cross into it -- the crossing that cascades the slot. FirstWindow()
// computes that start for a level's first occupied slot. NextBusyTick()
// leaps the cursor to it, and NextDeadline() skips any level whose first
// window starts at or after a deadline already found, so a slot of
// thousands of parked long timeouts is not walked on every recompute.
//
// Determinism contract. The kernel fires timers merged with the EventQueue
// in global (deadline, seq) order, with seqs minted from the EventQueue's
// own counter at arm time -- so moving a timeout from the queue to the
// wheel cannot reorder it against device events with equal deadlines.
// Within the wheel, entries collected from due slots drain through a
// (when, seq)-keyed min-heap, and (when, seq) pairs are unique, so the fire
// order is a total order independent of slot geometry. NextDeadline() is
// exact (never rounded to slot granularity): the idle dispatch loop
// advances virtual time to precisely the value it returns.

#ifndef SRC_KERN_TIMERWHEEL_H_
#define SRC_KERN_TIMERWHEEL_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "src/hal/clock.h"

namespace fluke {

struct Thread;

class TimerWheel {
 public:
  struct Entry {
    Time when = 0;      // exact deadline, ns
    uint64_t seq = 0;   // EventQueue-minted tiebreaker
    Thread* thread = nullptr;
    uint64_t token = 0;  // sleep_token snapshot at arm time
    Entry* prev = nullptr;
    Entry* next = nullptr;
    int8_t level = kFree;  // slot level, or one of the sentinels below
    uint8_t slot = 0;

    static constexpr int8_t kFree = -1;      // on the free list / popped
    static constexpr int8_t kDueSoon = -2;   // in the due-soon heap
    static constexpr int8_t kOverflow = -3;  // on the overflow list
    static constexpr int8_t kCancelled = -4; // lazily dead inside the heap
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms a timeout at absolute time `when`. O(1). The returned entry stays
  // owned by the wheel; it is freed by Cancel() or by PopDue()+Free().
  Entry* Arm(Time when, uint64_t seq, Thread* t, uint64_t token);

  // Cancels an armed entry. Entries still in a wheel slot (the common case)
  // are unlinked and returned to the free list immediately; only the few
  // already collected into the due-soon heap are marked and reaped lazily.
  void Cancel(Entry* e);

  // Live (non-cancelled) entries.
  bool empty() const { return live_ == 0; }
  uint64_t size() const { return live_; }

  // Exact earliest pending deadline; only valid when !empty(). Cached; a
  // recompute visits levels low to high and walks one slot chain per level
  // that can still beat the best deadline found so far.
  Time NextDeadline();

  // The due (when <= now) entry with the smallest (when, seq), or null.
  // Peek leaves it in place; Pop removes it (caller must Free() it after
  // reading its fields).
  //
  // An idle wheel is the dispatch loop's steady state (RunDueTimers peeks
  // once per iteration even when no sleep was ever armed), so the empty
  // case must cost a couple of loads -- not a slot walk. live_ == 0 with an
  // empty due-soon heap means every slot and the overflow list are empty
  // too: cancelled entries are unlinked from slots eagerly and linger only
  // inside due_soon_.
  Entry* PeekDue(Time now) {
    if (live_ == 0 && due_soon_.empty()) {
      const uint64_t target = (now >> kGranBits) + 1;
      if (target > cur_tick_) {
        cur_tick_ = target;
      }
      return nullptr;
    }
    return PeekDueSlow(now);
  }
  Entry* PopDue(Time now);
  void Free(Entry* e);

  // Entries moved down a level (or re-placed from overflow) by cursor
  // advancement; the "timer_cascades" stat. The kernel binds this to its
  // KernelStats counter so --stats sees it without a sync step.
  void BindCascadeCounter(uint64_t* counter) {
    *counter = *cascades_;
    cascades_ = counter;
  }
  uint64_t cascades() const { return *cascades_; }

 private:
  static constexpr int kGranBits = 10;  // level-0 slot = 1024 ns
  static constexpr int kSlotBits = 6;   // 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 8;     // covers 2^58 ns (~9 years)

  struct ByWhenSeq {
    bool operator()(const Entry* a, const Entry* b) const {
      return a->when != b->when ? a->when > b->when : a->seq > b->seq;
    }
  };

  Entry* AllocEntry();
  // Links `e` into the slot for `tick` (level chosen by delta from the
  // cursor), the overflow list, or the due-soon heap when already due.
  void Place(Entry* e);
  void PushSlot(Entry* e, int level, int slot);
  void UnlinkSlot(Entry* e);
  void PushDueSoon(Entry* e);
  // Moves every entry with tick < target_tick into the due-soon heap,
  // cascading higher levels as their slot boundaries are crossed.
  void Collect(Time now);
  // Drops cancelled entries off the top of the due-soon heap.
  void SkimDueSoon();
  // PeekDue() with a non-empty wheel: collect, skim, inspect the heap top.
  Entry* PeekDueSlow(Time now);
  // Flushes one slot's chain into the due-soon heap (level 0) or re-places
  // its entries (higher levels / overflow).
  void FlushLevel0Slot(int slot);
  void CascadeSlot(int level, int slot);
  // Cascades every level whose window boundary the cursor sits on (and
  // re-places overflow entries on a top-level wrap). Must run whenever the
  // cursor lands on a tick -- including Collect()'s final tick.
  void ProcessBoundaries();
  // Next tick at which the wheel has any work, or `bound` if none before.
  uint64_t NextBusyTick(uint64_t bound) const;
  // The first occupied slot of `level` (occupied_[level] != 0) in cursor
  // order, stored to *slot, and the tick its window starts at: a lower
  // bound on every entry's tick in that slot (see the header comment).
  uint64_t FirstWindow(int level, int* slot) const;

  Entry* slots_[kLevels][kSlots] = {};
  uint64_t occupied_[kLevels] = {};  // per-level non-empty-slot bitmaps
  Entry* overflow_ = nullptr;
  std::priority_queue<Entry*, std::vector<Entry*>, ByWhenSeq> due_soon_;

  uint64_t cur_tick_ = 0;  // ticks < cur_tick_ fully collected
  uint64_t live_ = 0;      // live entries (slots + overflow + due-soon)
  uint64_t own_cascades_ = 0;
  uint64_t* cascades_ = &own_cascades_;

  bool cached_min_valid_ = false;
  Time cached_min_ = 0;

  // Entry storage: chunked slab with a LIFO free list; chunks are never
  // returned until destruction, so entry pointers are stable.
  static constexpr size_t kChunkEntries = 256;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* free_list_ = nullptr;
};

}  // namespace fluke

#endif  // SRC_KERN_TIMERWHEEL_H_
