// User-mode memory manager (pager).
//
// Reproduces the setup the paper's memtest runs under: a child space whose
// keeper port is served by a manager thread in another space. The child has
// one Mapping over the manager's backing region; its pages are absent until
// the manager provides them, so:
//   * first touch of a page -> HARD fault: exception IPC to the manager,
//     which zero-fills the backing page (its own anon range) and replies;
//   * the retried access -> SOFT fault: the kernel walks the mapping
//     hierarchy, finds the now-present backing page, installs the PTE.
// One manager round trip + one kernel walk per page, exactly the cost
// structure Tables 3 and 5 depend on.

#ifndef SRC_WORKLOADS_PAGER_H_
#define SRC_WORKLOADS_PAGER_H_

#include <cstdint>
#include <string>

#include "src/kern/kernel.h"

namespace fluke {

struct ManagedSetup {
  Space* manager_space = nullptr;
  Thread* manager_thread = nullptr;
  Space* child_space = nullptr;
  Port* keeper_port = nullptr;
  Region* backing_region = nullptr;
  uint32_t window_bytes = 0;  // child demand-backed range is [0, window)
};

// Where the manager keeps the backing memory in its own space.
inline constexpr uint32_t kPagerBackingBase = 0x40000000;

// Creates the manager space + thread + child space. The child's [0, window)
// is demand-backed through the manager. `think_cycles` models the manager's
// per-fault bookkeeping (allocation policy, queueing) and is the calibration
// knob for the hard-fault remedy cost (Table 3).
//
// The manager thread is created but not started; call k.StartThread().
ManagedSetup BuildManagedSpace(Kernel& k, uint32_t window_bytes, const std::string& name,
                               uint32_t think_cycles = 19000);

// Builds only the manager program (for tests that arrange spaces manually).
// Handles are baked in as immediates.
ProgramRef BuildPagerProgram(const std::string& name, Handle keeper_port_handle,
                             uint32_t backing_base, uint32_t think_cycles);

}  // namespace fluke

#endif  // SRC_WORKLOADS_PAGER_H_
