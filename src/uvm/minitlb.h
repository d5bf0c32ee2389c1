// The switch core's internal interface: the interpreter-local translation
// cache, the packed cycle/retire account, and the resumable switch loop.
//
// The cache has 16 direct-mapped entries per access direction, living on
// RunUser's host stack. An entry is (page, host base pointer) obtained from
// MemoryBus::TranslateSpan; hits cost an index, a compare and a memcpy --
// no virtual call, no page-table walk.
//
// Why this needs no invalidation: entries live only for one RunUser call,
// and nothing can change a translation while user instructions execute --
// the page table is only mutated inside kernel entries (syscalls, faults,
// host-side setup), all of which end the run. The next RunUser starts cold.
//
// Shared by both engines (the switch loop, and the JIT's compiled code and
// memory helpers) so their bus access patterns -- and therefore the
// kernel's tlb_* stats -- are identical instruction for instruction.

#ifndef SRC_UVM_MINITLB_H_
#define SRC_UVM_MINITLB_H_

#include <cstdint>

#include "src/uvm/interp.h"

// Hot-path annotations for the interpreter; no-ops off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define FLUKE_LIKELY(x) __builtin_expect(!!(x), 1)
#define FLUKE_NOINLINE __attribute__((noinline))
#else
#define FLUKE_LIKELY(x) (x)
#define FLUKE_NOINLINE
#endif

namespace fluke {
namespace interp_internal {

inline constexpr uint32_t kMiniTlbEntries = 16;
inline constexpr uint32_t kMiniTlbMask = kMiniTlbEntries - 1;
inline constexpr uint32_t kNoPage = 0xFFFFFFFFu;  // vpns are < 2^20

struct MiniTlb {
  explicit MiniTlb(MemoryBus* bus) : bus_(bus) {
    for (uint32_t i = 0; i < kMiniTlbEntries; ++i) {
      rtag_[i] = wtag_[i] = kNoPage;
    }
  }

  // disable default copy to keep the cached pointers from leaking across
  // MiniTlb instances by accident; one instance per RunUser call.
  MiniTlb(const MiniTlb&) = delete;
  MiniTlb& operator=(const MiniTlb&) = delete;

  // Null means the access must take the faulting word/byte path on the bus.
  // A last-page slot (r0/w0) fronts the array: streaming loops touch the
  // same page thousands of times, and the slot turns those probes into one
  // compare. It only ever mirrors a live array entry, so it cannot change
  // which accesses reach the bus -- both engines see identical fill
  // patterns with or without the hit.
  uint8_t* ReadBase(uint32_t page) {
    if (FLUKE_LIKELY(page == r0page_)) {
      return r0base_;
    }
    const uint32_t idx = page & kMiniTlbMask;
    if (rtag_[idx] == page) {
      r0page_ = page;
      r0base_ = rbase_[idx];
      return r0base_;
    }
    return FillRead(page);
  }
  uint8_t* WriteBase(uint32_t page) {
    if (FLUKE_LIKELY(page == w0page_)) {
      return w0base_;
    }
    const uint32_t idx = page & kMiniTlbMask;
    if (wtag_[idx] == page) {
      w0page_ = page;
      w0base_ = wbase_[idx];
      return w0base_;
    }
    return FillWrite(page);
  }

  // The fills are kept out of line so the hit path -- an index, a compare
  // and a load -- doesn't drag TranslateSpan's register pressure into every
  // interpreter memory handler.
  FLUKE_NOINLINE uint8_t* FillRead(uint32_t page) {
    const Span s = bus_->TranslateSpan(page << kPageShift, kPageSize, kProtRead);
    if (s.len != kPageSize) {
      return nullptr;
    }
    rtag_[page & kMiniTlbMask] = page;
    rbase_[page & kMiniTlbMask] = s.ptr;
    r0page_ = page;
    r0base_ = s.ptr;
    return s.ptr;
  }
  FLUKE_NOINLINE uint8_t* FillWrite(uint32_t page) {
    const Span s = bus_->TranslateSpan(page << kPageShift, kPageSize, kProtWrite);
    if (s.len != kPageSize) {
      return nullptr;
    }
    wtag_[page & kMiniTlbMask] = page;
    wbase_[page & kMiniTlbMask] = s.ptr;
    w0page_ = page;
    w0base_ = s.ptr;
    return s.ptr;
  }

  // Last-page slots. Invariant: when r0page_ != kNoPage, the array entry at
  // its index holds the same (page, base) pair -- fills set both together.
  // Same for w0page_. That is what makes the slot a pure fast path: any
  // access pattern reaches the bus on exactly the probes the array alone
  // would have sent there.
  //
  // Members are public (standard layout) because the JIT templates inline
  // the last-page-slot probe by offsetof: a compiled loadw/storew compares
  // the page against r0page_/w0page_ and indexes off r0base_/w0base_
  // directly, falling back to a helper that calls ReadBase/WriteBase on the
  // same instance -- so the bus sees the exact fill pattern the switch
  // core produces. Copying stays deleted; one instance per RunUser call.
  uint32_t r0page_ = kNoPage;
  uint32_t w0page_ = kNoPage;
  uint8_t* r0base_ = nullptr;
  uint8_t* w0base_ = nullptr;
  uint32_t rtag_[kMiniTlbEntries];
  uint8_t* rbase_[kMiniTlbEntries];
  uint32_t wtag_[kMiniTlbEntries];
  uint8_t* wbase_[kMiniTlbEntries];
  MemoryBus* bus_;
};

// Packed accounting: cycles in the low word, retired instructions in the
// high word. The switch core's running account, the JIT's per-block charges
// (computed by JitProgram::Compile and baked into its entry stubs) and
// JitFrame::acct all share this layout. The halves never interact: the
// kernel caps a burst at 2^31 cycles and a block is one straight-line run
// of a single program, so the cycle half stays under 2^32 and
// componentwise add/subtract cannot carry or borrow across bit 32.
inline constexpr uint64_t kAcctInstr = 1ull << 32;  // one retired instruction
inline constexpr uint64_t kAcctCycleMask = kAcctInstr - 1;
inline constexpr uint64_t PackAcct(uint32_t instrs, uint64_t cycles) {
  return (static_cast<uint64_t>(instrs) << 32) | cycles;
}

// Static cycle cost of one instruction -- must mirror the switch core's
// per-instruction charges exactly (the JIT's block sums are built from it;
// tests/interp_dispatch_test.cc holds the two engines together).
uint64_t InstrCost(Op op, uint32_t imm);

// The portable fetch/decode/switch engine (interp_switch.cc): the reference
// semantics, the JIT's deopt target, and the engine for cold and one-block
// bursts.
RunResult RunUserSwitch(const Program& program, UserRegisters* regs,
                        MemoryBus* bus, uint64_t budget_cycles,
                        uint64_t* instr_counter = nullptr);

// Resumable form of the switch loop, used as the JIT's deopt target: picks
// up mid-burst with an already-accumulated packed account (`acct_in`,
// layout above) and the caller's MiniTlb, so a burst that started in
// compiled code and fell back finishes with exactly the cycles, retired
// instructions, register state and bus access pattern the switch engine
// alone would have produced. The returned cycles and the instr_counter
// increment cover the WHOLE burst (acct_in included), matching what RunUser
// reports. RunUserSwitch is this with a cold tlb and acct_in == 0.
RunResult RunUserSwitchCore(const Program& program, UserRegisters* regs,
                            MemoryBus* bus, uint64_t budget_cycles,
                            MiniTlb& tlb, uint64_t acct_in,
                            uint64_t* instr_counter = nullptr);

}  // namespace interp_internal
}  // namespace fluke

#endif  // SRC_UVM_MINITLB_H_
