// Software-TLB and translation-caching tests (src/kern/tlb.h, Space::
// PageData/TranslateSpan, the IPC bulk copy's span cache).
//
// Two properties are load-bearing:
//   1. Coherence: every page-table mutation (unmap, remap, protection
//      change, zero-fill, checkpoint restore) is visible to the very next
//      access -- a stale cached translation is a simulator correctness bug,
//      not a performance bug.
//   2. Determinism: the TLB and the span cache are host-side caches only.
//      Running any workload with the TLB on vs off must produce
//      bit-identical virtual time and kernel statistics (tlb_* counters
//      excepted, by definition).

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
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

// --- End-to-end: the IPC bulk path copies pages and stays correct ---

// A client and a server space with 4 MiB of anonymous memory each, and a
// port in the server that the client holds a reference to. The client's
// buffer holds a word pattern of `bytes` bytes.
struct BulkPair {
  static constexpr uint32_t kBuf = 0x20000;

  BulkPair(const KernelConfig& cfg, uint32_t bytes) : k(cfg), pattern(bytes / 4) {
    cs = k.CreateSpace("cl");
    ss = k.CreateSpace("sv");
    cs->SetAnonRange(0x10000, 4 << 20);
    ss->SetAnonRange(0x10000, 4 << 20);
    Port* port = k.NewPort(1);
    sp = k.Install(ss, port);
    cr = k.Install(cs, k.NewReference(port));
    for (uint32_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = i * 2654435761u + 3;
    }
    EXPECT_TRUE(cs->HostWrite(kBuf, pattern.data(), bytes));
  }

  uint32_t bytes() const { return static_cast<uint32_t>(pattern.size() * 4); }

  void Start(Assembler& client, Assembler& server) {
    ss->program = server.Build();
    cs->program = client.Build();
    k.StartThread(k.CreateThread(ss));
    k.StartThread(k.CreateThread(cs));
  }

  // The whole pattern as one message: connect_send against wait_receive.
  void StartOneMessage() {
    const uint32_t words = bytes() / 4;
    Assembler ca("client");
    EmitSys(ca, kSysIpcClientConnectSend, cr, kBuf, words, 0, 0);
    EmitCheckOk(ca);
    ca.Halt();
    Assembler sa("server");
    EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, kBuf, words);
    EmitCheckOk(sa);
    sa.Halt();
    Start(ca, sa);
  }

  std::vector<uint32_t> Received() const {
    std::vector<uint32_t> got(pattern.size());
    EXPECT_TRUE(ss->HostRead(kBuf, got.data(), bytes()));
    return got;
  }

  Kernel k;
  Space* cs = nullptr;
  Space* ss = nullptr;
  Handle sp = kInvalidHandle;
  Handle cr = kInvalidHandle;
  std::vector<uint32_t> pattern;
};

// IPC copies page-aligned pages like any others, so every received page
// sits in a frame of the receiver's own. (The name is kept from when such
// pages were lent copy-on-write.)
TEST(IpcLend, PageAlignedBulkTransferLendsAndIsolates) {
  BulkPair w(KernelConfig{}, 256 * 1024);  // default config: Process NP
  w.StartOneMessage();
  ASSERT_TRUE(w.k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));

  uint32_t shared = 0;
  for (uint32_t off = 0; off < w.bytes(); off += kPageSize) {
    const Pte* c = w.cs->FindPte(BulkPair::kBuf + off);
    const Pte* s = w.ss->FindPte(BulkPair::kBuf + off);
    ASSERT_NE(c, nullptr);
    ASSERT_NE(s, nullptr);
    shared += s->frame == c->frame ? 1 : 0;
  }
  EXPECT_EQ(shared, 0u) << "received pages share the sender's frames";
  EXPECT_EQ(w.Received(), w.pattern);

  // The client reusing its buffer must not retroactively change the
  // received message.
  const uint32_t zero = 0;
  for (uint32_t off = 0; off < w.bytes(); off += kPageSize) {
    ASSERT_TRUE(w.cs->HostWrite(BulkPair::kBuf + off, &zero, 4));
  }
  EXPECT_EQ(w.Received(), w.pattern) << "client writes leaked into the delivered message";
}

// An armed plan counts one kIpcChunk opportunity per committed 2 KiB chunk,
// whatever the buffers' alignment. Both buffers are resident, so no chunk
// faults and retries: 256 KiB is exactly 128 chunks.
TEST(IpcChunkOpportunities, OnePerCommittedChunkOfAnAlignedTransfer) {
  KernelConfig cfg = PaperConfig(0);  // Process NP
  cfg.fault_plan.enabled = true;      // counts opportunities, injects nothing
  BulkPair w(cfg, 256 * 1024);
  const std::vector<uint32_t> zeros(w.pattern.size(), 0);
  ASSERT_TRUE(w.ss->HostWrite(BulkPair::kBuf, zeros.data(), w.bytes()));
  w.StartOneMessage();
  w.k.finj.Arm();
  ASSERT_TRUE(w.k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));

  EXPECT_EQ(w.k.finj.opportunities(FaultHook::kIpcChunk), w.bytes() / 2048);
  EXPECT_EQ(w.k.finj.injected(), 0u);
  EXPECT_EQ(w.Received(), w.pattern);
}

// --- Pinned: the BM_BulkTransferMB shape in every paper config ---
//
// A client sends eight page-aligned 1 MiB messages to a server. In the
// rewrite leg it stores the send count into the first word of every page of
// its buffer before each send. Every pinned figure is a virtual result: a
// change to how IPC moves data must leave all of them where they are.

struct BulkPin {
  uint32_t clock_us;  // what the server's clock_get returns after its last receive
  uint64_t syscalls;
  uint64_t context_switches;
  uint64_t kernel_preemptions;
  uint64_t user_instructions;
  uint64_t frames_allocated;
  uint64_t frame_bytes_allocated;
  uint64_t frame_bytes_live_peak;
  uint64_t buf_digest;  // FNV-1a over the server's buffer
};

// [paper config][rewrite leg]
constexpr BulkPin kBulkPins[kNumPaperConfigs][2] = {
    // Process NP: resend, rewrite
    {{28110u, 18u, 12u, 0u, 178u, 299u, 97496u, 3704u, 0x6683ace06c58e9dcull},
     {28172u, 18u, 12u, 0u, 6338u, 299u, 97496u, 3704u, 0xba99efcaf1c51188ull}},
    // Process PP: resend, rewrite
    {{28127u, 18u, 12u, 0u, 178u, 299u, 97496u, 3704u, 0x6683ace06c58e9dcull},
     {28189u, 18u, 12u, 0u, 6338u, 299u, 97496u, 3704u, 0xba99efcaf1c51188ull}},
    // Process FP: resend, rewrite
    {{28960u, 18u, 12u, 0u, 178u, 299u, 97496u, 3704u, 0x6683ace06c58e9dcull},
     {29022u, 18u, 12u, 0u, 6338u, 299u, 97496u, 3704u, 0xba99efcaf1c51188ull}},
    // Interrupt NP: resend, rewrite
    {{28107u, 18u, 12u, 0u, 178u, 299u, 97496u, 3160u, 0x6683ace06c58e9dcull},
     {28169u, 18u, 12u, 0u, 6338u, 299u, 97496u, 3160u, 0xba99efcaf1c51188ull}},
    // Interrupt PP: resend, rewrite
    {{28124u, 18u, 12u, 0u, 178u, 299u, 97496u, 3160u, 0x6683ace06c58e9dcull},
     {28186u, 18u, 12u, 0u, 6338u, 299u, 97496u, 3160u, 0xba99efcaf1c51188ull}},
};

uint64_t Fnv1a64(const std::vector<uint32_t>& words) {
  uint64_t h = 14695981039346656037ull;
  for (const uint32_t w : words) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

class BulkTransferPinTest : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BulkTransferPinTest, EightAlignedMiBSends) {
  const auto [config, rewrite] = GetParam();
  BulkPair w(PaperConfig(config), 1 << 20);
  constexpr uint32_t kBuf = BulkPair::kBuf;
  const uint32_t words = w.bytes() / 4;
  const uint32_t clock_slot = kBuf + w.bytes();
  constexpr uint32_t kSends = 8;

  // SP counts sends on both sides: the kernel never touches it.
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnect, w.cr);
  EmitCheckOk(ca);
  ca.MovImm(kRegSP, 0);
  const auto send = ca.NewLabel();
  ca.Bind(send);
  if (rewrite) {
    ca.MovImm(kRegC, kBuf);
    ca.MovImm(kRegD, kBuf + w.bytes());
    const auto page = ca.NewLabel();
    ca.Bind(page);
    ca.StoreW(kRegSP, kRegC, 0);
    ca.AddImm(kRegC, kRegC, kPageSize);
    ca.Blt(kRegC, kRegD, page);
  }
  EmitSys(ca, kSysIpcClientSend, kUlibKeep, kBuf, words, 0, 0);
  EmitCheckOk(ca);
  ca.AddImm(kRegSP, kRegSP, 1);
  ca.MovImm(kRegBP, kSends);
  ca.Blt(kRegSP, kRegBP, send);
  ca.Halt();

  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.sp, 0, 0, kBuf, words);
  EmitCheckOk(sa);
  sa.MovImm(kRegSP, 1);
  const auto recv = sa.NewLabel();
  sa.Bind(recv);
  EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kBuf, words);
  EmitCheckOk(sa);
  sa.AddImm(kRegSP, kRegSP, 1);
  sa.MovImm(kRegBP, kSends);
  sa.Blt(kRegSP, kRegBP, recv);
  EmitSys(sa, kSysClockGet);
  EmitCheckOk(sa);
  sa.MovImm(kRegC, clock_slot);
  sa.StoreW(kRegB, kRegC, 0);
  sa.Halt();

  w.Start(ca, sa);
  ASSERT_TRUE(w.k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));

  std::vector<uint32_t> want = w.pattern;
  if (rewrite) {
    for (uint32_t i = 0; i < words; i += kPageSize / 4) {
      want[i] = kSends - 1;
    }
  }
  const std::vector<uint32_t> got = w.Received();
  EXPECT_EQ(got, want);
  uint32_t clock_us = 0;
  ASSERT_TRUE(w.ss->HostRead(clock_slot, &clock_us, 4));

  const BulkPin& pin = kBulkPins[config][rewrite ? 1 : 0];
  const KernelStats& st = w.k.stats;
  EXPECT_EQ(clock_us, pin.clock_us);
  EXPECT_EQ(st.syscalls, pin.syscalls);
  EXPECT_EQ(st.context_switches, pin.context_switches);
  EXPECT_EQ(st.kernel_preemptions, pin.kernel_preemptions);
  EXPECT_EQ(st.user_instructions, pin.user_instructions);
  EXPECT_EQ(st.frames_allocated, pin.frames_allocated);
  EXPECT_EQ(st.frame_bytes_allocated, pin.frame_bytes_allocated);
  EXPECT_EQ(st.frame_bytes_live_peak, pin.frame_bytes_live_peak);
  EXPECT_EQ(Fnv1a64(got), pin.buf_digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BulkTransferPinTest,
    testing::Combine(testing::Range(0, kNumPaperConfigs), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<int, bool>>& info) {
      std::string s = PaperConfig(std::get<0>(info.param)).Label();
      std::replace(s.begin(), s.end(), ' ', '_');
      return s + (std::get<1>(info.param) ? "_Rewrite" : "_Resend");
    });

// --- Determinism: TLB on vs off is invisible in virtual time ---

class TlbDeterminismTest : public testing::TestWithParam<KernelConfig> {};

// A mixed workload touching every cached path: user-mode stores/loads over
// several pages (interpreter mini-TLB), a page-aligned bulk send (span
// cache), and an RPC reply.
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
