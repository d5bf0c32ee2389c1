// Checkpoint-image serialization tests for task images (one-space machine
// images from CaptureSpace): round-trip fidelity, end-to-end serialize ->
// deserialize -> restore on a fresh kernel, byte identity with a machine
// capture, and robustness against malformed/truncated/corrupted streams (a
// migration manager receives these bytes from a network).

#include "src/base/wire.h"
#include "src/workloads/ckpt_image.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class CkptImageTest : public testing::TestWithParam<KernelConfig> {};

// A little two-thread world with memory + a held mutex, run 2 ms in: A
// computes inside its critical section, B is blocked on the mutex.
struct Task {
  ProgramRegistry registry;
  Kernel kernel;
  Space* space = nullptr;

  explicit Task(const KernelConfig& cfg) : kernel(cfg) {
    space = kernel.CreateSpace("job");
    space->SetAnonRange(0x10000, 1 << 20);
    auto mutex = kernel.NewMutex();
    const Handle m = kernel.Install(space, mutex);

    Assembler aa("fa");
    EmitSys(aa, kSysMutexLock, m);
    aa.MovImm(kRegB, 0x11223344);
    aa.MovImm(kRegC, 0x10000);
    aa.StoreW(kRegB, kRegC, 0);
    EmitCompute(aa, 900000);
    EmitSys(aa, kSysMutexUnlock, m);
    EmitPuts(aa, "A");
    aa.Halt();
    Assembler ab("fb");
    EmitCompute(ab, 100000);
    EmitSys(ab, kSysMutexLock, m);
    EmitPuts(ab, "B");
    ab.Halt();
    registry.Register(aa.Build());
    registry.Register(ab.Build());
    kernel.StartThread(kernel.CreateThread(space, registry.Find("fa")));
    kernel.StartThread(kernel.CreateThread(space, registry.Find("fb")));
    kernel.Run(kernel.clock.now() + 2 * kNsPerMs);
  }
};

// The task, checkpointed (and so frozen) at that instant.
struct Frozen : Task {
  MachineImage img;

  explicit Frozen(const KernelConfig& cfg) : Task(cfg) {
    std::string err;
    EXPECT_TRUE(CaptureSpace(kernel, *space, &img, &err)) << err;
  }
};

TEST_P(CkptImageTest, RoundTripPreservesEverything) {
  Frozen f(GetParam());
  const std::vector<uint8_t> bytes = SerializeMachine(f.img);
  EXPECT_GT(bytes.size(), kPageSize);  // at least the touched page travels

  MachineImage back;
  std::string err;
  ASSERT_TRUE(DeserializeImage(bytes, &back, &err)) << err;
  EXPECT_EQ(back.clock_ns, f.img.clock_ns);
  EXPECT_EQ(back.base_generation, 0u);
  ASSERT_EQ(back.spaces.size(), 1u);
  const MachineImage::SpaceImage& bs = back.spaces[0];
  const MachineImage::SpaceImage& fs = f.img.spaces[0];
  EXPECT_EQ(bs.name, "job");
  EXPECT_EQ(bs.anon_base, fs.anon_base);
  EXPECT_EQ(bs.anon_size, fs.anon_size);
  ASSERT_EQ(back.threads.size(), 2u);
  for (size_t i = 0; i < back.threads.size(); ++i) {
    EXPECT_EQ(back.threads[i].state, f.img.threads[i].state) << i;
    EXPECT_EQ(back.threads[i].program_name, f.img.threads[i].program_name) << i;
    EXPECT_EQ(back.threads[i].was_runnable, f.img.threads[i].was_runnable) << i;
  }
  ASSERT_EQ(bs.pages.size(), fs.pages.size());
  for (size_t i = 0; i < bs.pages.size(); ++i) {
    EXPECT_EQ(bs.pages[i].vaddr, fs.pages[i].vaddr);
    EXPECT_EQ(bs.pages[i].data, fs.pages[i].data);
  }
  ASSERT_EQ(bs.objects.size(), fs.objects.size());
  for (size_t i = 0; i < bs.objects.size(); ++i) {
    EXPECT_EQ(bs.objects[i].kind, fs.objects[i].kind) << i;
    EXPECT_EQ(bs.objects[i].mutex_locked, fs.objects[i].mutex_locked) << i;
  }
  EXPECT_EQ(SerializeMachine(back), bytes);
}

TEST_P(CkptImageTest, SerializedImageRestoresAndCompletes) {
  Frozen f(GetParam());
  const std::vector<uint8_t> wire = SerializeMachine(f.img);
  DestroySpaceThreads(f.kernel, *f.space);

  MachineImage img;
  std::string err;
  ASSERT_TRUE(DeserializeImage(wire, &img, &err)) << err;

  Kernel k2(GetParam());
  const MachineRestoreResult r = RestoreMachine(k2, img, f.registry);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  // Both threads finish; the memory write survived the wire.
  EXPECT_EQ(k2.console.output(), "AB");
  uint32_t v = 0;
  ASSERT_TRUE(r.spaces[0]->HostRead(0x10000, &v, 4));
  EXPECT_EQ(v, 0x11223344u);
}

// A task image is a one-space machine image: CaptureSpace and CaptureMachine
// of an identical world at the same instant write the same bytes, and the
// task capture opens no concurrent-capture session.
TEST_P(CkptImageTest, TaskImageEqualsOneSpaceMachineImage) {
  Frozen f(GetParam());
  Task twin(GetParam());
  MachineImage whole;
  std::string err;
  ASSERT_TRUE(CaptureMachine(twin.kernel, /*delta=*/false, &whole, &err)) << err;
  EXPECT_EQ(SerializeMachine(f.img), SerializeMachine(whole));
  EXPECT_EQ(f.kernel.stats.ckpt_generations, 0u);
  EXPECT_EQ(f.kernel.stats.ckpt_mark_pages, 0u);
  EXPECT_EQ(f.kernel.stats.ckpt_pause_hist.count, 0u);
}

TEST_P(CkptImageTest, RejectsBadMagicVersionAndTruncation) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeMachine(f.img);
  MachineImage img;
  std::string err;

  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeImage(bad, &img, &err));
  EXPECT_NE(err.find("magic"), std::string::npos);

  bad = good;
  bad[4] += 1;  // version
  EXPECT_FALSE(DeserializeImage(bad, &img, &err));
  EXPECT_NE(err.find("version"), std::string::npos);

  // The retired single-space format's header is refused outright.
  bad = good;
  wire::StoreLe32(bad.data() + 4, 2);
  EXPECT_FALSE(DeserializeImage(bad, &img, &err));
  EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;

  // Every truncation point must be rejected cleanly (sampled).
  for (size_t cut = 0; cut < good.size(); cut += 997) {
    std::vector<uint8_t> t(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeImage(t, &img, &err)) << "cut at " << cut;
  }
  // Trailing garbage is rejected too.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(DeserializeImage(bad, &img, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST_P(CkptImageTest, FuzzCorruptionNeverCrashes) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeMachine(f.img);
  Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = good;
    const int flips = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < flips; ++i) {
      bad[rng.Below(bad.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    MachineImage img;
    std::string err;
    // The CRCs cover page data too, so every corruption -- structural or
    // payload -- is rejected.
    EXPECT_FALSE(DeserializeImage(bad, &img, &err)) << "trial " << trial;
  }
}

// Exhaustive single-byte corruption: flip each byte of the stream in turn
// and require a clean rejection. Catches any field the CRC or the
// structural/semantic checks fail to cover.
TEST_P(CkptImageTest, FlipEveryByteIsRejected) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeMachine(f.img);
  for (size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x5A;
    MachineImage img;
    std::string err;
    EXPECT_FALSE(DeserializeImage(bad, &img, &err)) << "byte " << i;
  }
}

// Oversized streams: padding past the CRC trailer must be rejected even
// when the padding re-serializes harmlessly elsewhere.
TEST_P(CkptImageTest, RejectsOversizedStream) {
  Frozen f(GetParam());
  auto bad = SerializeMachine(f.img);
  bad.insert(bad.end(), 64, 0xAA);
  MachineImage img;
  std::string err;
  EXPECT_FALSE(DeserializeImage(bad, &img, &err));
}

// A malformed-but-parseable image must come back from RestoreMachine as a
// clean error, not an assert: here, an image whose only space-self slot was
// re-typed to empty.
TEST_P(CkptImageTest, RestoreRejectsMalformedImageCleanly) {
  Frozen f(GetParam());
  MachineImage img = f.img;
  img.spaces[0].objects[0].kind = MachineImage::ObjKind::kEmpty;
  Kernel k2(GetParam());
  const MachineRestoreResult r = RestoreMachine(k2, img, f.registry, /*start=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("space-self"), std::string::npos) << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CkptImageTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
