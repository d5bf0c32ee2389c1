// Checkpoint-image serialization tests: round-trip fidelity, end-to-end
// serialize -> deserialize -> restore on a fresh kernel, and robustness
// against malformed/truncated/corrupted streams (a migration manager
// receives these bytes from a network).

#include "src/workloads/ckpt_image.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class CkptImageTest : public testing::TestWithParam<KernelConfig> {};

// A little two-thread world with memory + a held mutex, frozen mid-run.
struct Frozen {
  ProgramRegistry registry;
  Kernel kernel;
  Space* space = nullptr;
  CheckpointImage img;

  explicit Frozen(const KernelConfig& cfg) : kernel(cfg) {
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
    kernel.Run(kernel.clock.now() + 2 * kNsPerMs);  // A computes, B blocked
    img = CaptureSpace(kernel, *space);
  }
};

TEST_P(CkptImageTest, RoundTripPreservesEverything) {
  Frozen f(GetParam());
  const std::vector<uint8_t> bytes = SerializeCheckpoint(f.img);
  EXPECT_GT(bytes.size(), kPageSize);  // at least the touched page travels

  CheckpointImage back;
  std::string err;
  ASSERT_TRUE(DeserializeCheckpoint(bytes, &back, &err)) << err;
  EXPECT_EQ(back.space_name, f.img.space_name);
  EXPECT_EQ(back.anon_base, f.img.anon_base);
  EXPECT_EQ(back.anon_size, f.img.anon_size);
  ASSERT_EQ(back.threads.size(), f.img.threads.size());
  for (size_t i = 0; i < back.threads.size(); ++i) {
    EXPECT_EQ(back.threads[i].state, f.img.threads[i].state) << i;
    EXPECT_EQ(back.threads[i].program_name, f.img.threads[i].program_name) << i;
    EXPECT_EQ(back.threads[i].was_runnable, f.img.threads[i].was_runnable) << i;
  }
  ASSERT_EQ(back.pages.size(), f.img.pages.size());
  for (size_t i = 0; i < back.pages.size(); ++i) {
    EXPECT_EQ(back.pages[i].vaddr, f.img.pages[i].vaddr);
    EXPECT_EQ(back.pages[i].data, f.img.pages[i].data);
  }
  ASSERT_EQ(back.objects.size(), f.img.objects.size());
  for (size_t i = 0; i < back.objects.size(); ++i) {
    EXPECT_EQ(back.objects[i].kind, f.img.objects[i].kind) << i;
    EXPECT_EQ(back.objects[i].mutex_locked, f.img.objects[i].mutex_locked) << i;
  }
}

TEST_P(CkptImageTest, SerializedImageRestoresAndCompletes) {
  Frozen f(GetParam());
  const std::vector<uint8_t> wire = SerializeCheckpoint(f.img);
  DestroySpaceThreads(f.kernel, *f.space);

  CheckpointImage img;
  std::string err;
  ASSERT_TRUE(DeserializeCheckpoint(wire, &img, &err)) << err;

  Kernel k2(GetParam());
  RestoreResult r = RestoreSpace(k2, img, f.registry);
  ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  // Both threads finish; the memory write survived the wire.
  EXPECT_EQ(k2.console.output(), "AB");
  uint32_t v = 0;
  ASSERT_TRUE(r.space->HostRead(0x10000, &v, 4));
  EXPECT_EQ(v, 0x11223344u);
}

TEST_P(CkptImageTest, RejectsBadMagicVersionAndTruncation) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeCheckpoint(f.img);
  CheckpointImage img;
  std::string err;

  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err));
  EXPECT_NE(err.find("magic"), std::string::npos);

  bad = good;
  bad[4] += 1;  // version
  EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err));
  EXPECT_NE(err.find("version"), std::string::npos);

  // Every truncation point must be rejected cleanly (sampled).
  for (size_t cut = 0; cut < good.size(); cut += 997) {
    std::vector<uint8_t> t(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeCheckpoint(t, &img, &err)) << "cut at " << cut;
  }
  // Trailing garbage is rejected too.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST_P(CkptImageTest, FuzzCorruptionNeverCrashes) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeCheckpoint(f.img);
  Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = good;
    const int flips = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < flips; ++i) {
      bad[rng.Below(bad.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    CheckpointImage img;
    std::string err;
    // Since v2 the CRC trailer covers page data too, so every corruption --
    // structural or payload -- is rejected.
    EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err)) << "trial " << trial;
  }
}

// Exhaustive single-byte corruption: flip each byte of the stream in turn
// and require a clean rejection. Catches any field the CRC or the
// structural/semantic checks fail to cover.
TEST_P(CkptImageTest, FlipEveryByteIsRejected) {
  Frozen f(GetParam());
  const std::vector<uint8_t> good = SerializeCheckpoint(f.img);
  for (size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x5A;
    CheckpointImage img;
    std::string err;
    EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err)) << "byte " << i;
  }
}

// Oversized streams: padding past the CRC trailer must be rejected even
// when the padding re-serializes harmlessly elsewhere.
TEST_P(CkptImageTest, RejectsOversizedStream) {
  Frozen f(GetParam());
  auto bad = SerializeCheckpoint(f.img);
  bad.insert(bad.end(), 64, 0xAA);
  CheckpointImage img;
  std::string err;
  EXPECT_FALSE(DeserializeCheckpoint(bad, &img, &err));
}

// A malformed-but-parseable image must come back from RestoreSpace as a
// clean error, not an assert: here, an image whose only space-self slot was
// re-typed to empty.
TEST_P(CkptImageTest, RestoreRejectsMalformedImageCleanly) {
  Frozen f(GetParam());
  CheckpointImage img = f.img;
  img.objects[0].kind = CheckpointImage::ObjKind::kEmpty;
  Kernel k2(GetParam());
  RestoreResult r = RestoreSpace(k2, img, f.registry, /*start=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("space-self"), std::string::npos) << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CkptImageTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
