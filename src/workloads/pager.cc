#include "src/workloads/pager.h"

#include "src/api/ulib.h"

namespace fluke {

ProgramRef BuildPagerProgram(const std::string& name, Handle keeper_port_handle,
                             uint32_t backing_base, uint32_t think_cycles) {
  Assembler a(name);
  // Message buffer lives just below the backing window, inside the
  // manager's anon range.
  const uint32_t msgbuf = backing_base - kPageSize;

  const auto loop = a.NewLabel();
  a.Bind(loop);
  // reply_wait_receive: complete the previous fault (if any), then wait for
  // the next one. B = keeper port, SI/DI = message buffer.
  EmitSys(a, kSysIpcReplyWaitReceive, keeper_port_handle, 0, 0, msgbuf, kFaultMsgWords);
  // On failure (e.g. port destroyed) the manager exits.
  {
    const auto ok = a.NewLabel();
    a.MovImm(kRegBP, kFlukeOk);
    a.Beq(kRegA, kRegBP, ok);
    a.Halt();
    a.Bind(ok);
  }
  // Model the manager's allocation bookkeeping.
  if (think_cycles > 0) {
    EmitCompute(a, think_cycles);
  }
  // page = fault_addr & ~(kPageSize-1)
  a.MovImm(kRegBP, msgbuf);
  a.LoadW(kRegC, kRegBP, 4 * kFaultMsgAddr);
  a.MovImm(kRegSP, ~kPageMask);
  a.And(kRegC, kRegC, kRegSP);
  // Touch the backing page (manager anon range -> kernel zero-fill): this
  // is what "provides" the page; the victim's retry then soft-resolves
  // through the mapping hierarchy.
  a.MovImm(kRegSP, backing_base);
  a.Add(kRegBP, kRegC, kRegSP);
  a.StoreB(kRegA, kRegBP);
  a.Jmp(loop);
  return a.Build();
}

ManagedSetup BuildManagedSpace(Kernel& k, uint32_t window_bytes, const std::string& name,
                               uint32_t think_cycles) {
  ManagedSetup s;
  s.window_bytes = window_bytes;

  s.manager_space = k.CreateSpace(name + "-mgr");
  // Anon range covers the message buffer page and the whole backing window.
  s.manager_space->SetAnonRange(kPagerBackingBase - kPageSize, window_bytes + kPageSize);

  s.keeper_port = k.NewPort(/*badge=*/0xFA);
  const Handle port_h = k.Install(s.manager_space, s.keeper_port);

  s.child_space = k.CreateSpace(name + "-child");
  s.child_space->keeper = s.keeper_port;

  // Export the manager's backing window and import it at the child's [0,
  // window): child address p is backed by manager address backing_base + p.
  s.backing_region =
      k.NewRegion(s.manager_space, kPagerBackingBase, window_bytes, kProtReadWrite);
  k.NewMapping(s.child_space, 0, s.backing_region, 0, window_bytes, kProtReadWrite);

  s.manager_space->program =
      BuildPagerProgram(name + "-pager", port_h, kPagerBackingBase, think_cycles);
  s.manager_thread = k.CreateThread(s.manager_space, nullptr, /*priority=*/5);
  return s;
}

}  // namespace fluke
