#include "src/kern/timerwheel.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fluke {

namespace {

constexpr uint64_t kSlotMask = (1u << 6) - 1;

}  // namespace

TimerWheel::Entry* TimerWheel::AllocEntry() {
  if (free_list_ == nullptr) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    Entry* base = chunks_.back().get();
    for (size_t i = kChunkEntries; i-- > 0;) {
      base[i].next = free_list_;
      free_list_ = &base[i];
    }
  }
  Entry* e = free_list_;
  free_list_ = e->next;
  return e;
}

void TimerWheel::Free(Entry* e) {
  e->thread = nullptr;
  e->prev = nullptr;
  e->level = Entry::kFree;
  e->next = free_list_;
  free_list_ = e;
}

TimerWheel::Entry* TimerWheel::Arm(Time when, uint64_t seq, Thread* t,
                                   uint64_t token) {
  Entry* e = AllocEntry();
  e->when = when;
  e->seq = seq;
  e->thread = t;
  e->token = token;
  e->prev = e->next = nullptr;
  Place(e);
  ++live_;
  if (!cached_min_valid_ || when < cached_min_) {
    cached_min_ = when;
    cached_min_valid_ = true;
  }
  return e;
}

void TimerWheel::Place(Entry* e) {
  const uint64_t tick = e->when >> kGranBits;
  if (tick < cur_tick_) {
    // Already inside the collected region (e.g. a zero-length sleep):
    // straight to the due-soon heap, it fires on the next run.
    PushDueSoon(e);
    return;
  }
  const uint64_t delta = tick - cur_tick_;
  int level = 0;
  while (level < kLevels &&
         (delta >> (kSlotBits * (level + 1))) != 0) {
    ++level;
  }
  if (level >= kLevels) {
    e->level = Entry::kOverflow;
    e->next = overflow_;
    e->prev = nullptr;
    if (overflow_ != nullptr) overflow_->prev = e;
    overflow_ = e;
    return;
  }
  PushSlot(e, level, static_cast<int>((tick >> (kSlotBits * level)) & kSlotMask));
}

void TimerWheel::PushSlot(Entry* e, int level, int slot) {
  e->level = static_cast<int8_t>(level);
  e->slot = static_cast<uint8_t>(slot);
  e->prev = nullptr;
  e->next = slots_[level][slot];
  if (e->next != nullptr) e->next->prev = e;
  slots_[level][slot] = e;
  occupied_[level] |= 1ull << slot;
}

void TimerWheel::UnlinkSlot(Entry* e) {
  if (e->prev != nullptr) {
    e->prev->next = e->next;
  } else {
    slots_[e->level][e->slot] = e->next;
    if (e->next == nullptr) occupied_[e->level] &= ~(1ull << e->slot);
  }
  if (e->next != nullptr) e->next->prev = e->prev;
  e->prev = e->next = nullptr;
}

void TimerWheel::PushDueSoon(Entry* e) {
  e->level = Entry::kDueSoon;
  e->prev = e->next = nullptr;
  due_soon_.push(e);
}

void TimerWheel::Cancel(Entry* e) {
  assert(e->level != Entry::kFree && e->level != Entry::kCancelled);
  --live_;
  if (cached_min_valid_ && e->when == cached_min_) cached_min_valid_ = false;
  switch (e->level) {
    case Entry::kDueSoon:
      // Inside the heap: mark dead, reaped when it surfaces. The window is
      // tiny (entries whose slot the cursor already crossed).
      e->level = Entry::kCancelled;
      e->thread = nullptr;
      return;
    case Entry::kOverflow:
      if (e->prev != nullptr) {
        e->prev->next = e->next;
      } else {
        overflow_ = e->next;
      }
      if (e->next != nullptr) e->next->prev = e->prev;
      break;
    default:
      UnlinkSlot(e);
      break;
  }
  Free(e);
}

void TimerWheel::SkimDueSoon() {
  while (!due_soon_.empty() && due_soon_.top()->level == Entry::kCancelled) {
    Entry* dead = due_soon_.top();
    due_soon_.pop();
    Free(dead);
  }
}

void TimerWheel::FlushLevel0Slot(int slot) {
  Entry* e = slots_[0][slot];
  slots_[0][slot] = nullptr;
  occupied_[0] &= ~(1ull << slot);
  while (e != nullptr) {
    Entry* next = e->next;
    PushDueSoon(e);
    e = next;
  }
}

void TimerWheel::CascadeSlot(int level, int slot) {
  Entry* e = slots_[level][slot];
  slots_[level][slot] = nullptr;
  occupied_[level] &= ~(1ull << slot);
  while (e != nullptr) {
    Entry* next = e->next;
    e->prev = e->next = nullptr;
    Place(e);  // re-place by remaining delta: lands in a lower level
    ++*cascades_;
    e = next;
  }
}

uint64_t TimerWheel::FirstWindow(int level, int* slot) const {
  const uint64_t bm = occupied_[level];
  const int shift = kSlotBits * level;
  const int pos = static_cast<int>((cur_tick_ >> shift) & kSlotMask);
  if (level == 0) {
    // Level 0: slots pos..pos+63 map to ticks cur..cur+63.
    const int dist = std::countr_zero(std::rotr(bm, pos));
    *slot = (pos + dist) & static_cast<int>(kSlotMask);
    return cur_tick_ + static_cast<uint64_t>(dist);
  }
  // Higher levels: the slot at the cursor position was cascaded when the
  // cursor arrived there, so an occupied bit at `pos` means one full
  // rotation away. The window starts at a multiple of 64^level.
  const int dist = std::countr_zero(std::rotr(bm, (pos + 1) & kSlotMask)) + 1;
  *slot = (pos + dist) & static_cast<int>(kSlotMask);
  return ((cur_tick_ >> shift) + static_cast<uint64_t>(dist)) << shift;
}

uint64_t TimerWheel::NextBusyTick(uint64_t bound) const {
  // The next tick at which the cursor has real work: the first occupied
  // slot's window start at each level (a level-L slot cascades when the
  // cursor reaches it), or a top-level wrap when the overflow list is
  // non-empty. Used to leap over empty stretches after long idle advances
  // instead of stepping 1 us at a time.
  uint64_t best = bound;
  for (int level = 0; level < kLevels; ++level) {
    if (occupied_[level] == 0) continue;
    int slot;
    best = std::min(best, FirstWindow(level, &slot));
  }
  if (overflow_ != nullptr) {
    const uint64_t rot = 1ull << (kSlotBits * kLevels);
    const uint64_t wrap = ((cur_tick_ >> (kSlotBits * kLevels)) + 1) *rot;
    best = std::min(best, wrap);
  }
  return best;
}

void TimerWheel::ProcessBoundaries() {
  // Cascade every level whose window boundary the cursor sits on, highest
  // first so re-placed entries land in already-open windows. Re-cascading a
  // boundary is harmless: the slot is empty after the first pass, and any
  // entry armed into the cursor slot since (one rotation out) is simply
  // re-placed correctly relative to the cursor.
  for (int level = kLevels - 1; level >= 1; --level) {
    const uint64_t span = kSlotBits * level;
    if ((cur_tick_ & ((1ull << span) - 1)) == 0) {
      CascadeSlot(level, static_cast<int>((cur_tick_ >> span) & kSlotMask));
    }
  }
  if ((cur_tick_ & ((1ull << (kSlotBits * kLevels)) - 1)) == 0 &&
      overflow_ != nullptr) {
    // Top-level wrap: overflow entries may now fit in the wheel.
    Entry* e = overflow_;
    overflow_ = nullptr;
    while (e != nullptr) {
      Entry* next = e->next;
      e->prev = e->next = nullptr;
      Place(e);
      ++*cascades_;
      e = next;
    }
  }
}

void TimerWheel::Collect(Time now) {
  const uint64_t target = (now >> kGranBits) + 1;
  if (cur_tick_ >= target) {
    return;
  }
  // Invariant: every return below runs ProcessBoundaries() at the final
  // cursor position first. Exiting with an unprocessed boundary would
  // strand its entries behind the cursor for a whole rotation (and
  // NextDeadline would keep reporting their past deadline, wedging the
  // idle loop's virtual-time advance).
  for (;;) {
    ProcessBoundaries();
    if (cur_tick_ >= target) {
      return;
    }
    // Leap over stretches with no occupied slots and no cascade work.
    const uint64_t next_busy = NextBusyTick(target);
    if (next_busy > cur_tick_) {
      cur_tick_ = next_busy;
      continue;  // handle boundaries at the landing tick first
    }
    const int slot0 = static_cast<int>(cur_tick_ & kSlotMask);
    if (slots_[0][slot0] != nullptr) FlushLevel0Slot(slot0);
    ++cur_tick_;
  }
}

TimerWheel::Entry* TimerWheel::PeekDueSlow(Time now) {
  Collect(now);
  SkimDueSoon();
  if (due_soon_.empty() || due_soon_.top()->when > now) return nullptr;
  return due_soon_.top();
}

TimerWheel::Entry* TimerWheel::PopDue(Time now) {
  Entry* e = PeekDue(now);
  if (e == nullptr) return nullptr;
  due_soon_.pop();
  e->level = Entry::kFree;
  --live_;
  if (cached_min_valid_ && e->when == cached_min_) cached_min_valid_ = false;
  return e;
}

Time TimerWheel::NextDeadline() {
  assert(live_ > 0);
  if (cached_min_valid_) return cached_min_;
  // Recompute exactly: min over the due-soon heap top, the first occupied
  // slot of each level (slot order is time order within a level), and the
  // overflow list. Levels go low to high, and a level whose first window
  // starts at or after the best deadline so far is skipped unwalked: by the
  // window-start lower bound none of its entries can be earlier.
  SkimDueSoon();
  Time best = ~Time{0};
  if (!due_soon_.empty()) best = due_soon_.top()->when;
  for (int level = 0; level < kLevels; ++level) {
    if (occupied_[level] == 0) continue;
    int slot;
    if ((FirstWindow(level, &slot) << kGranBits) >= best) continue;
    for (Entry* e = slots_[level][slot]; e != nullptr; e = e->next) {
      best = std::min(best, e->when);
    }
  }
  for (Entry* e = overflow_; e != nullptr; e = e->next) {
    best = std::min(best, e->when);
  }
  cached_min_ = best;
  cached_min_valid_ = true;
  return best;
}

}  // namespace fluke
