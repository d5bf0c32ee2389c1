// Process migration between two kernels ("machines").
//
// The same exportable-state machinery that enables checkpointing moves a
// live task between kernels: capture on machine 1, ship the image (here: a
// struct; on real Fluke, a network message), restore on machine 2. Threads
// that were blocked mid-operation resume from their committed restart
// points on the new machine.
//
// Build & run:  ./build/examples/migration

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/workloads/checkpoint.h"
#include "src/workloads/ckpt_image.h"

using namespace fluke;

int main() {
  ProgramRegistry registry;  // shared program store (the "binary" travels)

  // The migrating task: computes in chunks, printing progress after each.
  Assembler a("migrant");
  for (int stage = 0; stage < 6; ++stage) {
    EmitCompute(a, 400000);  // 2 ms per stage
    EmitPuts(a, std::string(1, static_cast<char>('0' + stage)));
  }
  EmitPuts(a, "-done");
  a.Halt();
  registry.Register(a.Build());

  // Machine 1 runs the task for 5 ms (mid-stage-2).
  KernelConfig cfg;
  cfg.model = ExecModel::kInterrupt;  // the models interoperate freely:
  Kernel machine1(cfg);               // checkpoint on interrupt-model...
  auto space1 = machine1.CreateSpace("job");
  space1->SetAnonRange(0x10000, 1 << 20);
  space1->program = registry.Find("migrant");
  machine1.StartThread(machine1.CreateThread(space1));
  machine1.Run(machine1.clock.now() + 5 * kNsPerMs);
  std::printf("machine1 output: \"%s\" (then the task is frozen + shipped)\n",
              machine1.console.output().c_str());

  MachineImage image;
  std::string err;
  if (!CaptureSpace(machine1, *space1, &image, &err)) {
    std::printf("REFUSED: %s\n", err.c_str());
    return 1;
  }
  DestroySpaceThreads(machine1, *space1);

  // Ship the frozen task over "the wire": serialize to bytes, validate and
  // decode on the receiving machine.
  const std::vector<uint8_t> wire = SerializeMachine(image);
  std::printf("wire image     : %zu bytes (%zu threads, %zu pages)\n", wire.size(),
              image.threads.size(), image.TotalPages());
  MachineImage received;
  if (!DeserializeImage(wire, &received, &err)) {
    std::printf("FAILED to decode the image: %s\n", err.c_str());
    return 1;
  }

  // Machine 2: a different kernel in a different configuration.
  KernelConfig cfg2;
  cfg2.model = ExecModel::kProcess;  // ...restore on process-model.
  cfg2.preempt = PreemptMode::kFull;
  Kernel machine2(cfg2);
  const MachineRestoreResult r = RestoreMachine(machine2, received, registry);
  if (!r.ok) {
    std::printf("FAILED to restore: %s\n", r.error.c_str());
    return 1;
  }
  if (!machine2.RunUntilQuiescent(60ull * 1000 * kNsPerMs)) {
    std::printf("FAILED: task did not finish on machine 2\n");
    return 1;
  }
  std::printf("machine2 output: \"%s\"\n", machine2.console.output().c_str());

  const std::string combined = machine1.console.output() + machine2.console.output();
  std::printf("combined       : \"%s\"\n", combined.c_str());
  const bool ok = combined == "012345-done";
  std::printf("%s: the task %s exactly once across the two machines\n",
              ok ? "SUCCESS" : "FAILURE", ok ? "ran" : "did NOT run");
  return ok ? 0 : 1;
}
