// Memory subsystem unit tests: the physical frame allocator (refcounts,
// reuse, exhaustion) and Space page tables / mapping hierarchies in
// isolation from the dispatcher.

#include <gtest/gtest.h>

#include "src/kern/kernel.h"
#include "src/mem/phys.h"

namespace fluke {
namespace {

TEST(PhysMemory, AllocZeroedAndDistinct) {
  PhysMemory pm(16);
  FrameId a = pm.Alloc();
  FrameId b = pm.Alloc();
  ASSERT_NE(a, kInvalidFrame);
  ASSERT_NE(b, kInvalidFrame);
  EXPECT_NE(a, b);
  for (uint32_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(pm.Data(a)[i], 0);
  }
  EXPECT_EQ(pm.allocated_frames(), 2u);
}

TEST(PhysMemory, RefcountSharingAndFree) {
  PhysMemory pm(16);
  FrameId f = pm.Alloc();
  EXPECT_EQ(pm.refcount(f), 1u);
  pm.Ref(f);
  EXPECT_EQ(pm.refcount(f), 2u);
  pm.Unref(f);
  EXPECT_EQ(pm.allocated_frames(), 1u);
  pm.Unref(f);
  EXPECT_EQ(pm.allocated_frames(), 0u);
}

TEST(PhysMemory, FreedFrameIsReusedZeroed) {
  PhysMemory pm(16);
  FrameId f = pm.Alloc();
  pm.Data(f)[17] = 0xAB;
  pm.Unref(f);
  FrameId g = pm.Alloc();
  EXPECT_EQ(g, f);  // LIFO reuse
  EXPECT_EQ(pm.Data(g)[17], 0);
}

TEST(PhysMemory, ExhaustionReturnsInvalid) {
  PhysMemory pm(3);
  std::vector<FrameId> held;
  for (;;) {
    FrameId f = pm.Alloc();
    if (f == kInvalidFrame) {
      break;
    }
    held.push_back(f);
    ASSERT_LT(held.size(), 100u);
  }
  EXPECT_GE(held.size(), 3u);
  pm.Unref(held.back());
  EXPECT_NE(pm.Alloc(), kInvalidFrame);  // freeing makes room again
}

class SpaceMemTest : public testing::Test {
 protected:
  KernelConfig cfg_;
  Kernel k_{cfg_};
};

TEST_F(SpaceMemTest, MapUnmapRefcounts) {
  auto s = k_.CreateSpace("s");
  FrameId f = k_.phys.Alloc();
  s->MapPage(0x1000, f, kProtReadWrite);
  EXPECT_EQ(k_.phys.refcount(f), 2u);  // ours + the map's
  s->MapPage(0x2000, f, kProtRead);    // alias
  EXPECT_EQ(k_.phys.refcount(f), 3u);
  s->UnmapPage(0x1000);
  EXPECT_EQ(k_.phys.refcount(f), 2u);
  s->UnmapPage(0x2000);
  EXPECT_EQ(k_.phys.refcount(f), 1u);
  k_.phys.Unref(f);
  EXPECT_EQ(k_.phys.allocated_frames(), 0u);
}

TEST_F(SpaceMemTest, RemapReplacesWithoutLeak) {
  auto s = k_.CreateSpace("s");
  FrameId f1 = k_.phys.Alloc();
  FrameId f2 = k_.phys.Alloc();
  s->MapPage(0x1000, f1, kProtReadWrite);
  s->MapPage(0x1000, f2, kProtReadWrite);  // replace
  k_.phys.Unref(f1);
  k_.phys.Unref(f2);
  EXPECT_EQ(k_.phys.allocated_frames(), 1u);  // only f2 (held by the map)
  EXPECT_EQ(s->FindPte(0x1000)->frame, f2);
}

TEST_F(SpaceMemTest, MapSameFrameOverItself) {
  auto s = k_.CreateSpace("s");
  FrameId f = k_.phys.Alloc();
  s->MapPage(0x1000, f, kProtReadWrite);
  s->MapPage(0x1000, f, kProtRead);  // same frame, new prot
  EXPECT_EQ(k_.phys.refcount(f), 2u);
  EXPECT_EQ(s->FindPte(0x1000)->prot, kProtRead);
}

TEST_F(SpaceMemTest, WordAccessRespectsProt) {
  auto s = k_.CreateSpace("s");
  ASSERT_NE(s->ProvidePage(0x1000, kProtRead), kInvalidFrame);
  uint32_t v = 0, fa = 0;
  EXPECT_TRUE(s->ReadWord(0x1000, &v, &fa));
  EXPECT_FALSE(s->WriteWord(0x1000, 1, &fa));
  EXPECT_EQ(fa, 0x1000u);
}

TEST_F(SpaceMemTest, PageStraddlingWordAccess) {
  auto s = k_.CreateSpace("s");
  ASSERT_NE(s->ProvidePage(0x1000), kInvalidFrame);
  ASSERT_NE(s->ProvidePage(0x2000), kInvalidFrame);
  const uint32_t addr = 0x2000 - 2;  // straddles the boundary
  uint32_t fa = 0;
  EXPECT_TRUE(s->WriteWord(addr, 0xA1B2C3D4, &fa));
  uint32_t v = 0;
  EXPECT_TRUE(s->ReadWord(addr, &v, &fa));
  EXPECT_EQ(v, 0xA1B2C3D4u);
  // Unmap the second page: the straddling access now faults at its byte.
  s->UnmapPage(0x2000);
  EXPECT_FALSE(s->ReadWord(addr, &v, &fa));
  EXPECT_EQ(fa, 0x2000u);
}

TEST_F(SpaceMemTest, SoftWalkInstallsSharedFrame) {
  auto parent = k_.CreateSpace("parent");
  auto child = k_.CreateSpace("child");
  auto region = k_.NewRegion(parent, 0x8000, 4 * kPageSize, kProtReadWrite);
  k_.NewMapping(child, 0x20000, region, kPageSize, 2 * kPageSize, kProtReadWrite);

  // Provide the parent page backing child 0x21000 (region offset 2 pages).
  ASSERT_NE(parent->ProvidePage(0x8000 + 2 * kPageSize), kInvalidFrame);
  uint8_t b = 0x5C;
  ASSERT_TRUE(parent->HostWrite(0x8000 + 2 * kPageSize + 5, &b, 1));

  SoftFaultResult r = child->TryResolveSoft(0x21000, /*want_write=*/false);
  EXPECT_TRUE(r.resolved);
  EXPECT_EQ(r.levels_walked, 1);
  uint8_t got = 0;
  ASSERT_TRUE(child->HostRead(0x21005, &got, 1));
  EXPECT_EQ(got, 0x5C);
  // Same frame (shared), not a copy.
  EXPECT_EQ(child->FindPte(0x21000)->frame,
            parent->FindPte(0x8000 + 2 * kPageSize)->frame);
}

TEST_F(SpaceMemTest, WalkFailsOutsideMappingWindow) {
  auto parent = k_.CreateSpace("parent");
  auto child = k_.CreateSpace("child");
  auto region = k_.NewRegion(parent, 0x8000, kPageSize, kProtReadWrite);
  k_.NewMapping(child, 0x20000, region, 0, kPageSize, kProtReadWrite);
  ASSERT_NE(parent->ProvidePage(0x8000), kInvalidFrame);
  EXPECT_TRUE(child->TryResolveSoft(0x20000, false).resolved);
  EXPECT_FALSE(child->TryResolveSoft(0x21000, false).resolved);  // past the window
}

TEST_F(SpaceMemTest, OffsetBeyondRegionFails) {
  auto parent = k_.CreateSpace("parent");
  auto child = k_.CreateSpace("child");
  auto region = k_.NewRegion(parent, 0x8000, kPageSize, kProtReadWrite);
  // Mapping window is 2 pages but the region only has 1: the second page
  // falls off the end of the region.
  k_.NewMapping(child, 0x20000, region, 0, 2 * kPageSize, kProtReadWrite);
  ASSERT_NE(parent->ProvidePage(0x8000), kInvalidFrame);
  EXPECT_TRUE(child->TryResolveSoft(0x20000, false).resolved);
  EXPECT_FALSE(child->TryResolveSoft(0x21000, false).resolved);
}

TEST_F(SpaceMemTest, ProtIntersectsAlongChain) {
  auto parent = k_.CreateSpace("parent");
  auto child = k_.CreateSpace("child");
  auto region = k_.NewRegion(parent, 0x8000, kPageSize, kProtReadWrite);
  k_.NewMapping(child, 0x20000, region, 0, kPageSize, kProtRead);
  ASSERT_NE(parent->ProvidePage(0x8000), kInvalidFrame);
  EXPECT_FALSE(child->TryResolveSoft(0x20000, /*want_write=*/true).resolved);
  EXPECT_TRUE(child->TryResolveSoft(0x20000, /*want_write=*/false).resolved);
  EXPECT_EQ(child->FindPte(0x20000)->prot & kProtWrite, 0u);
}

TEST_F(SpaceMemTest, CyclicMappingsTerminate) {
  // Two spaces importing from each other with no backing anywhere must
  // fail cleanly (depth limit), not loop.
  auto a = k_.CreateSpace("a");
  auto b = k_.CreateSpace("b");
  auto ra = k_.NewRegion(a, 0x1000, kPageSize, kProtReadWrite);
  auto rb = k_.NewRegion(b, 0x1000, kPageSize, kProtReadWrite);
  k_.NewMapping(a, 0x1000, rb, 0, kPageSize, kProtReadWrite);
  k_.NewMapping(b, 0x1000, ra, 0, kPageSize, kProtReadWrite);
  EXPECT_FALSE(a->TryResolveSoft(0x1000, false).resolved);
}

TEST_F(SpaceMemTest, HostWriteProvidesPages) {
  auto s = k_.CreateSpace("s");
  const char msg[] = "spanning three pages of data";
  const uint32_t addr = 2 * kPageSize - 8;
  ASSERT_TRUE(s->HostWrite(addr, msg, sizeof(msg)));
  char back[sizeof(msg)] = {};
  ASSERT_TRUE(s->HostRead(addr, back, sizeof(msg)));
  EXPECT_STREQ(back, msg);
}

}  // namespace
}  // namespace fluke
