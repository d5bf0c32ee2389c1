// A user-mode memory manager (pager) serving demand-paged memory.
//
// The child space starts with NO pages. Every first touch raises a hard
// fault, which the kernel turns into an exception IPC to the space's keeper
// port; the manager thread (ordinary user code!) provides the backing page
// and replies; the kernel then resolves the retried access by walking the
// mapping hierarchy (a soft fault). One manager round trip + one hierarchy
// walk per page -- the structure behind the paper's memtest row and
// Table 3.
//
// Build & run:  ./build/examples/pager

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/workloads/pager.h"

using namespace fluke;

int main() {
  Kernel kernel(KernelConfig{});
  ManagedSetup m = BuildManagedSpace(kernel, /*window_bytes=*/1 << 20, "demo");
  kernel.StartThread(m.manager_thread);
  std::printf("manager: serving faults for child space '%s' over keeper port (badge 0x%X)\n",
              m.child_space->name().c_str(), m.keeper_port->badge);

  // The child writes a string at page granularity, then reads it back.
  Assembler a("child");
  const char* text = "demand-paged!";
  for (int i = 0; text[i] != '\0'; ++i) {
    a.MovImm(kRegB, static_cast<uint32_t>(text[i]));
    a.MovImm(kRegC, static_cast<uint32_t>(i) * kPageSize);  // one byte per page!
    a.StoreB(kRegB, kRegC, 0);
  }
  for (int i = 0; text[i] != '\0'; ++i) {
    a.MovImm(kRegC, static_cast<uint32_t>(i) * kPageSize);
    a.LoadB(kRegB, kRegC, 0);
    a.MovImm(kRegA, kSysConsolePutc);
    a.Syscall();
  }
  a.Halt();
  m.child_space->program = a.Build();
  Thread* child = kernel.CreateThread(m.child_space);
  kernel.StartThread(child);

  if (!kernel.RunUntilThreadDone(child, 10ull * 1000 * kNsPerMs)) {
    std::printf("FAILED: child did not finish\n");
    return 1;
  }

  std::printf("child read back: \"%s\"\n", kernel.console.output().c_str());
  std::printf("faults: %llu hard (manager round trips), %llu soft (hierarchy walks)\n",
              static_cast<unsigned long long>(kernel.stats.hard_faults),
              static_cast<unsigned long long>(kernel.stats.soft_faults));
  std::printf("child pages mapped: %zu; manager backing pages: %zu\n",
              m.child_space->mapped_pages(), m.manager_space->mapped_pages());
  std::printf("avg hard-fault remedy: %.1f us (exception IPC to the manager);\n"
              "avg soft-fault remedy: %.1f us (kernel mapping-hierarchy walk)\n",
              static_cast<double>(kernel.stats.remedy_hard_ns) /
                  (kernel.stats.hard_faults ? kernel.stats.hard_faults : 1) / kNsPerUs,
              static_cast<double>(kernel.stats.remedy_soft_ns) /
                  (kernel.stats.soft_faults ? kernel.stats.soft_faults : 1) / kNsPerUs);
  return kernel.console.output() == text ? 0 : 1;
}
