// Software-TLB and translation-caching tests (src/kern/tlb.h, Space::
// PageData/TranslateSpan, IPC copy-on-write page lending).
//
// Two properties are load-bearing:
//   1. Coherence: every page-table mutation (unmap, remap, protection
//      change, zero-fill, checkpoint restore, cow lend/break) is visible to
//      the very next access -- a stale cached translation is a simulator
//      correctness bug, not a performance bug.
//   2. Determinism: the TLB and the lend path are host-side caches only.
//      Running any workload with the TLB on vs off must produce
//      bit-identical virtual time and kernel statistics (tlb_* counters
//      excepted, by definition).

#include <cstring>
#include <vector>

#include "src/workloads/checkpoint.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

constexpr uint32_t kVaddr = 0x40000;  // page-aligned test address

class TlbTest : public testing::Test {
 protected:
  Kernel k_{KernelConfig{}};
};

TEST_F(TlbTest, TranslateSpanClampsToPageAndChecksProt) {
  auto s = k_.CreateSpace("s");
  ASSERT_NE(s->ProvidePage(kVaddr, kProtRead), kInvalidFrame);
  // Clamp: a span request crossing the page end stops at the page end.
  Span sp = s->TranslateSpan(kVaddr + 0x100, 2 * kPageSize, kProtRead);
  EXPECT_EQ(sp.len, kPageSize - 0x100);
  ASSERT_NE(sp.ptr, nullptr);
  // Protection: asking for write rights on a read-only page yields nothing.
  sp = s->TranslateSpan(kVaddr, 16, kProtWrite);
  EXPECT_EQ(sp.len, 0u);
  // Unmapped.
  sp = s->TranslateSpan(kVaddr + kPageSize, 16, kProtRead);
  EXPECT_EQ(sp.len, 0u);
}

TEST_F(TlbTest, UnmapInvalidatesCachedTranslation) {
  auto s = k_.CreateSpace("s");
  ASSERT_NE(s->ProvidePage(kVaddr), kInvalidFrame);
  uint32_t v = 0, fa = 0;
  ASSERT_TRUE(s->WriteWord(kVaddr, 0x1234u, &fa));
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));  // warm the TLB
  EXPECT_EQ(v, 0x1234u);
  s->UnmapPage(kVaddr);
  EXPECT_FALSE(s->ReadWord(kVaddr, &v, &fa)) << "stale TLB entry survived unmap";
  EXPECT_EQ(fa, kVaddr);
}

TEST_F(TlbTest, RemapToDifferentFrameIsVisible) {
  auto s = k_.CreateSpace("s");
  FrameId a = k_.phys.Alloc();
  FrameId b = k_.phys.Alloc();
  ASSERT_NE(a, kInvalidFrame);
  ASSERT_NE(b, kInvalidFrame);
  std::memset(k_.phys.Data(a), 0xAA, kPageSize);
  std::memset(k_.phys.Data(b), 0xBB, kPageSize);
  s->MapPage(kVaddr, a, kProtReadWrite);
  uint8_t v = 0;
  uint32_t fa = 0;
  ASSERT_TRUE(s->ReadByte(kVaddr + 5, &v, &fa));  // warm
  EXPECT_EQ(v, 0xAA);
  s->MapPage(kVaddr, b, kProtReadWrite);  // remap over a warm entry
  ASSERT_TRUE(s->ReadByte(kVaddr + 5, &v, &fa));
  EXPECT_EQ(v, 0xBB) << "read served from the pre-remap frame";
  k_.phys.Unref(a);
  k_.phys.Unref(b);
}

TEST_F(TlbTest, ProtectionDowngradeIsVisible) {
  auto s = k_.CreateSpace("s");
  FrameId f = s->ProvidePage(kVaddr, kProtReadWrite);
  ASSERT_NE(f, kInvalidFrame);
  uint32_t fa = 0;
  ASSERT_TRUE(s->WriteWord(kVaddr, 1u, &fa));  // warm with a RW entry
  s->MapPage(kVaddr, f, kProtRead);            // downgrade, same frame
  EXPECT_FALSE(s->WriteWord(kVaddr, 2u, &fa)) << "write allowed through stale RW entry";
  uint32_t v = 0;
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 1u);
}

TEST_F(TlbTest, AnonZeroFillAfterUnmapReadsZeroes) {
  auto s = k_.CreateSpace("s");
  s->SetAnonRange(kVaddr, 1 << 20);
  uint32_t fa = 0;
  ASSERT_TRUE(s->HostWrite(kVaddr, "\xDE\xAD\xBE\xEF", 4));
  uint32_t v = 0;
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));  // warm
  EXPECT_NE(v, 0u);
  s->UnmapPage(kVaddr);
  SoftFaultResult r = s->TryResolveSoft(kVaddr, /*want_write=*/false);
  ASSERT_TRUE(r.resolved);
  EXPECT_TRUE(r.zero_filled);
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 0u) << "zero-filled page read stale contents";
}

TEST_F(TlbTest, CheckpointRestoreSeesRestoredContents) {
  auto s = k_.CreateSpace("ck");
  s->SetAnonRange(kVaddr, 1 << 20);
  const uint32_t pat = 0x5EED5EEDu;
  ASSERT_TRUE(s->HostWrite(kVaddr, &pat, 4));
  uint32_t v = 0, fa = 0;
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));  // warm original space's TLB
  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureSpace(k_, *s, &img, &err)) << err;
  // Mutate the original after capture; the restored space must see the
  // captured value through its own (fresh) frames and TLB.
  ASSERT_TRUE(s->WriteWord(kVaddr, 0u, &fa));
  ProgramRegistry reg;
  const MachineRestoreResult rr = RestoreMachine(k_, img, reg, /*start=*/false);
  ASSERT_TRUE(rr.ok) << rr.error;
  ASSERT_TRUE(rr.spaces[0]->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, pat);
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 0u);
}

TEST_F(TlbTest, HitMissFlushCountersMove) {
  auto s = k_.CreateSpace("s");
  ASSERT_NE(s->ProvidePage(kVaddr), kInvalidFrame);
  const uint64_t h0 = k_.stats.tlb_hits, m0 = k_.stats.tlb_misses;
  uint32_t v = 0, fa = 0;
  ASSERT_TRUE(s->ReadWord(kVaddr, &v, &fa));      // miss + fill
  ASSERT_TRUE(s->ReadWord(kVaddr + 4, &v, &fa));  // hit
  EXPECT_GT(k_.stats.tlb_misses, m0);
  EXPECT_GT(k_.stats.tlb_hits, h0);
  const uint64_t f0 = k_.stats.tlb_flushes;
  s->UnmapPage(kVaddr);  // warm entry discarded
  EXPECT_GT(k_.stats.tlb_flushes, f0);
}

TEST_F(TlbTest, HandleSlotsAreReusedAndCounted) {
  auto s = k_.CreateSpace("s");
  const size_t base = s->handle_count();
  Handle a = s->Install(k_.NewPort(1));
  Handle b = s->Install(k_.NewPort(2));
  EXPECT_EQ(s->handle_count(), base + 2);
  s->Uninstall(a);
  EXPECT_EQ(s->handle_count(), base + 1);
  Handle c = s->Install(k_.NewPort(3));  // freed slot is reused, not grown
  EXPECT_EQ(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(s->handle_count(), base + 2);
}

// --- Copy-on-write page lending (Space-level) ---

class CowTest : public testing::Test {
 protected:
  Kernel k_{KernelConfig{}};
};

TEST_F(CowTest, LendSharesFrameAndReceiverWriteBreaks) {
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  ASSERT_NE(a->ProvidePage(kVaddr, kProtReadWrite), kInvalidFrame);
  ASSERT_NE(b->ProvidePage(kVaddr, kProtReadWrite), kInvalidFrame);
  uint32_t fa = 0;
  ASSERT_TRUE(a->WriteWord(kVaddr, 111u, &fa));

  ASSERT_TRUE(b->SharePageFrom(*a, kVaddr, kVaddr));
  const Pte* pa = a->FindPte(kVaddr);
  const Pte* pb = b->FindPte(kVaddr);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->frame, pb->frame);
  EXPECT_TRUE(pa->cow);
  EXPECT_TRUE(pb->cow);
  EXPECT_EQ(k_.phys.refcount(pa->frame), 2u);
  uint32_t v = 0;
  ASSERT_TRUE(b->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 111u);
  // Repeat lend of the same page is a cheap no-op.
  ASSERT_TRUE(b->SharePageFrom(*a, kVaddr, kVaddr));
  EXPECT_EQ(a->FindPte(kVaddr)->frame, b->FindPte(kVaddr)->frame);

  // Receiver writes: its frame privatizes; the sender keeps the original.
  ASSERT_TRUE(b->WriteWord(kVaddr, 222u, &fa));
  EXPECT_NE(a->FindPte(kVaddr)->frame, b->FindPte(kVaddr)->frame);
  ASSERT_TRUE(a->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 111u);
  ASSERT_TRUE(b->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 222u);
}

TEST_F(CowTest, SenderWriteAfterLendPrivatizes) {
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  ASSERT_NE(a->ProvidePage(kVaddr), kInvalidFrame);
  ASSERT_NE(b->ProvidePage(kVaddr), kInvalidFrame);
  uint32_t fa = 0;
  ASSERT_TRUE(a->WriteWord(kVaddr, 7u, &fa));
  ASSERT_TRUE(b->SharePageFrom(*a, kVaddr, kVaddr));
  // Sender prepares its next message: must not be visible to the receiver.
  ASSERT_TRUE(a->WriteWord(kVaddr, 8u, &fa));
  uint32_t v = 0;
  ASSERT_TRUE(b->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 7u) << "sender write leaked through the lent frame";
  EXPECT_NE(a->FindPte(kVaddr)->frame, b->FindPte(kVaddr)->frame);
  // The receiver's cow flag is lazily stale (sole holder now); its next
  // write just sheds the flag without copying.
  const FrameId bf = b->FindPte(kVaddr)->frame;
  ASSERT_TRUE(b->WriteWord(kVaddr, 9u, &fa));
  EXPECT_FALSE(b->FindPte(kVaddr)->cow);
  EXPECT_EQ(b->FindPte(kVaddr)->frame, bf) << "sole holder copied needlessly";
}

TEST_F(CowTest, HostWriteBreaksCow) {
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  ASSERT_NE(a->ProvidePage(kVaddr), kInvalidFrame);
  ASSERT_NE(b->ProvidePage(kVaddr), kInvalidFrame);
  ASSERT_TRUE(b->SharePageFrom(*a, kVaddr, kVaddr));
  const uint32_t x = 42;
  ASSERT_TRUE(b->HostWrite(kVaddr, &x, 4));  // host writes honor cow too
  EXPECT_NE(a->FindPte(kVaddr)->frame, b->FindPte(kVaddr)->frame);
  uint32_t v = 0, fa = 0;
  ASSERT_TRUE(a->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 0u);
}

TEST_F(CowTest, HierarchySharedFramesAreNotLent) {
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  auto c = k_.CreateSpace("c");
  // a's frame is also mapped (non-cow) by c -- the shape a soft-fault
  // install produces. Lending it would bypass c.
  FrameId f = a->ProvidePage(kVaddr);
  ASSERT_NE(f, kInvalidFrame);
  c->MapPage(kVaddr, f, kProtRead);
  ASSERT_NE(b->ProvidePage(kVaddr), kInvalidFrame);
  EXPECT_FALSE(b->SharePageFrom(*a, kVaddr, kVaddr));
  EXPECT_NE(b->FindPte(kVaddr)->frame, f);
  // Symmetric: a hierarchy-shared *destination* frame must not be dropped
  // for a lend either (a copy would have written into it, visibly to c).
  auto d = k_.CreateSpace("d");
  ASSERT_NE(d->ProvidePage(kVaddr), kInvalidFrame);
  EXPECT_FALSE(c->SharePageFrom(*d, kVaddr, kVaddr));
}

TEST_F(CowTest, EnsurePrivateFrameUnshares) {
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  ASSERT_NE(a->ProvidePage(kVaddr), kInvalidFrame);
  ASSERT_NE(b->ProvidePage(kVaddr), kInvalidFrame);
  uint32_t fa = 0;
  ASSERT_TRUE(a->WriteWord(kVaddr, 5u, &fa));
  ASSERT_TRUE(b->SharePageFrom(*a, kVaddr, kVaddr));
  // What TryResolveSoft does before handing a's frame to the hierarchy.
  ASSERT_TRUE(a->EnsurePrivateFrame(kVaddr));
  EXPECT_FALSE(a->FindPte(kVaddr)->cow);
  EXPECT_NE(a->FindPte(kVaddr)->frame, b->FindPte(kVaddr)->frame);
  uint32_t v = 0;
  ASSERT_TRUE(a->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 5u);
  ASSERT_TRUE(b->ReadWord(kVaddr, &v, &fa));
  EXPECT_EQ(v, 5u);
}

// --- End-to-end: the IPC bulk path lends pages and stays correct ---

TEST(IpcLend, PageAlignedBulkTransferLendsAndIsolates) {
  KernelConfig cfg;  // default: PreemptMode::kNone -- the lending config
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 4 << 20);
  ss->SetAnonRange(0x10000, 4 << 20);
  auto port = k.NewPort(1);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));
  constexpr uint32_t kBytes = 256 * 1024;  // page-aligned, 64 pages
  constexpr uint32_t kWords = kBytes / 4;
  constexpr uint32_t kBuf = 0x20000;

  std::vector<uint32_t> pat(kWords);
  for (uint32_t i = 0; i < kWords; ++i) {
    pat[i] = i * 2654435761u + 3;
  }
  ASSERT_TRUE(cs->HostWrite(kBuf, pat.data(), kBytes));

  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, cr, kBuf, kWords, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, kBuf, kWords);
  EmitCheckOk(sa);
  sa.Halt();
  ss->program = sa.Build();
  cs->program = ca.Build();
  k.StartThread(k.CreateThread(ss));
  k.StartThread(k.CreateThread(cs));
  ASSERT_TRUE(k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));

  EXPECT_GT(k.stats.ipc_page_lends, 0u) << "aligned bulk transfer never lent";
  std::vector<uint32_t> got(kWords);
  ASSERT_TRUE(ss->HostRead(kBuf, got.data(), kBytes));
  EXPECT_EQ(got, pat);

  // The client reusing its buffer must not retroactively change the
  // received message.
  const uint32_t zero = 0;
  for (uint32_t off = 0; off < kBytes; off += kPageSize) {
    ASSERT_TRUE(cs->HostWrite(kBuf + off, &zero, 4));
  }
  ASSERT_TRUE(ss->HostRead(kBuf, got.data(), kBytes));
  EXPECT_EQ(got, pat) << "client writes leaked into the delivered message";
}

// --- Determinism: TLB on vs off is invisible in virtual time ---

class TlbDeterminismTest : public testing::TestWithParam<KernelConfig> {};

// A mixed workload touching every cached path: user-mode stores/loads over
// several pages (interpreter mini-TLB), a page-aligned bulk send (span
// cache + page lending where the config allows it), and an RPC reply.
struct DetResult {
  Time end_time = 0;
  KernelStats stats;
  std::string console;
  std::vector<uint32_t> server_mem;
};

DetResult RunWorkload(KernelConfig cfg, bool tlb) {
  cfg.enable_tlb = tlb;
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 4 << 20);
  ss->SetAnonRange(0x10000, 4 << 20);
  auto port = k.NewPort(9);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));
  constexpr uint32_t kBuf = 0x20000;
  constexpr uint32_t kBufBytes = 16 * kPageSize;
  constexpr uint32_t kWords = kBufBytes / 4;

  // Client: fill the buffer with i^2-ish values in user mode, send it, read
  // back the 4-byte reply, print.
  Assembler ca("client");
  {
    const auto loop = ca.NewLabel();
    const auto out = ca.NewLabel();
    ca.MovImm(kRegB, kBuf);
    ca.MovImm(kRegC, kBuf + kBufBytes);
    ca.MovImm(kRegD, 1);
    ca.Bind(loop);
    ca.Bge(kRegB, kRegC, out);
    ca.StoreW(kRegD, kRegB, 0);
    ca.LoadW(kRegSI, kRegB, 0);
    ca.Add(kRegD, kRegD, kRegSI);
    ca.AddImm(kRegB, kRegB, 4);
    ca.Jmp(loop);
    ca.Bind(out);
    EmitSys(ca, kSysIpcClientConnect, cr);
    EmitCheckOk(ca);
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, kBuf, kWords, kBuf, 1);
    EmitCheckOk(ca);
    EmitPuts(ca, "C");
    ca.Halt();
  }
  Assembler sa("server");
  {
    EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, kBuf, kWords);
    EmitCheckOk(sa);
    EmitSys(sa, kSysIpcServerAckSend, 0, kBuf, 1, 0, 0);
    EmitCheckOk(sa);
    EmitPuts(sa, "S");
    sa.Halt();
  }
  ss->program = sa.Build();
  cs->program = ca.Build();
  k.StartThread(k.CreateThread(ss));
  k.StartThread(k.CreateThread(cs));
  EXPECT_TRUE(k.RunUntilQuiescent(120ull * 1000 * kNsPerMs));

  DetResult r;
  r.end_time = k.clock.now();
  r.stats = k.stats;
  r.console = k.console.output();
  r.server_mem.resize(kWords);
  EXPECT_TRUE(ss->HostRead(kBuf, r.server_mem.data(), kBufBytes));
  return r;
}

TEST_P(TlbDeterminismTest, VirtualTimeAndStatsIdenticalTlbOnOff) {
  const DetResult on = RunWorkload(GetParam(), /*tlb=*/true);
  const DetResult off = RunWorkload(GetParam(), /*tlb=*/false);

  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.console, off.console);
  EXPECT_EQ(on.server_mem, off.server_mem);

  const KernelStats& a = on.stats;
  const KernelStats& b = off.stats;
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.syscalls, b.syscalls);
  EXPECT_EQ(a.syscall_restarts, b.syscall_restarts);
  EXPECT_EQ(a.kernel_preemptions, b.kernel_preemptions);
  EXPECT_EQ(a.soft_faults, b.soft_faults);
  EXPECT_EQ(a.hard_faults, b.hard_faults);
  EXPECT_EQ(a.user_faults, b.user_faults);
  EXPECT_EQ(a.region_pages_scanned, b.region_pages_scanned);
  EXPECT_EQ(a.syscall_faults, b.syscall_faults);
  EXPECT_EQ(a.ipc_page_lends, b.ipc_page_lends);  // lending ignores the TLB
  EXPECT_EQ(a.rollback_ns, b.rollback_ns);
  EXPECT_EQ(a.remedy_soft_ns, b.remedy_soft_ns);
  EXPECT_EQ(a.remedy_hard_ns, b.remedy_hard_ns);
  for (int side = 0; side < 2; ++side) {
    for (int kind = 0; kind < 2; ++kind) {
      EXPECT_EQ(a.ipc_faults[side][kind].count, b.ipc_faults[side][kind].count);
      EXPECT_EQ(a.ipc_faults[side][kind].remedy_ns, b.ipc_faults[side][kind].remedy_ns);
      EXPECT_EQ(a.ipc_faults[side][kind].rollback_ns, b.ipc_faults[side][kind].rollback_ns);
    }
  }
  EXPECT_EQ(a.frames_allocated, b.frames_allocated);
  EXPECT_EQ(a.frame_bytes_allocated, b.frame_bytes_allocated);
  EXPECT_EQ(a.frame_bytes_live, b.frame_bytes_live);
  EXPECT_EQ(a.frame_bytes_live_peak, b.frame_bytes_live_peak);
  EXPECT_EQ(a.blocked_frame_bytes_peak, b.blocked_frame_bytes_peak);
  EXPECT_EQ(a.probe_runs, b.probe_runs);
  EXPECT_EQ(a.probe_misses, b.probe_misses);

  // And the TLB was actually exercised in the "on" run.
  EXPECT_GT(a.tlb_hits + a.tlb_misses, 0u);
  EXPECT_EQ(b.tlb_hits, 0u);
  EXPECT_EQ(b.tlb_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TlbDeterminismTest,
                         testing::ValuesIn(AllPaperConfigs()), ConfigName);

}  // namespace
}  // namespace fluke
