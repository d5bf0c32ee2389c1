// Shared test fixtures and helpers.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/api/abi.h"
#include "src/api/ulib.h"
#include "src/kern/config.h"
#include "src/kern/kernel.h"

namespace fluke {

// A kernel plus one space with kernel-backed anonymous memory at
// [kAnonBase, kAnonBase + kAnonSize) -- enough for simple programs.
struct SimpleWorld {
  static constexpr uint32_t kAnonBase = 0x10000;
  static constexpr uint32_t kAnonSize = 16 * 1024 * 1024;

  explicit SimpleWorld(const KernelConfig& cfg = KernelConfig{}) : kernel(cfg) {
    space = kernel.CreateSpace("test-space");
    space->SetAnonRange(kAnonBase, kAnonSize);
  }

  // Creates and starts a thread running `program` in the shared space. The
  // first program spawned also becomes the space's default program (what
  // user-mode thread_create picks up for new threads).
  Thread* Spawn(ProgramRef program, int priority = 4) {
    if (space->program == nullptr) {
      space->program = program;
    }
    Thread* t = kernel.CreateThread(space, std::move(program), priority);
    kernel.StartThread(t);
    return t;
  }

  // Runs until quiescent; asserts it quiesced.
  void RunAll(Time max_time = 60ull * 1000 * kNsPerMs) {
    ASSERT_TRUE(kernel.RunUntilQuiescent(max_time)) << "kernel did not quiesce";
  }

  Kernel kernel;
  Space* space = nullptr;
};

// The five paper configurations, for parameterized suites.
inline std::vector<KernelConfig> AllPaperConfigs() {
  std::vector<KernelConfig> v;
  for (int i = 0; i < kNumPaperConfigs; ++i) {
    v.push_back(PaperConfig(i));
  }
  return v;
}

inline std::string ConfigName(const testing::TestParamInfo<KernelConfig>& info) {
  std::string s = info.param.Label();
  for (char& c : s) {
    if (c == ' ') {
      c = '_';
    }
  }
  return s;
}

}  // namespace fluke

#endif  // TESTS_TEST_UTIL_H_
