#include "src/workloads/audit.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/api/ulib.h"
#include "src/kern/inspect.h"
#include "src/kern/trace_binary.h"

namespace fluke {

namespace {

// One complete run of the workload under `plan`, snapshotting everything
// the oracle compares. Returns false (with *why filled) if the run did not
// quiesce or left no finished thread.
bool RunOnce(const KernelConfig& base_cfg, const FaultPlan& plan, const ProgramRef& prog,
             uint32_t anon_base, uint32_t anon_size, Time max_time, ProgramRegistry* registry,
             size_t flight_events, AuditFlight* flight, AuditSnapshot* out, uint64_t* boundaries,
             uint64_t* extractions, uint64_t* restart_audits, std::string* dump,
             std::string* why) {
  KernelConfig cfg = base_cfg;
  cfg.fault_plan = plan;
  Kernel k(cfg, registry);
  if (flight_events != 0) {
    // Flight ring for the postmortem bundle. The armed injector already
    // forces the instrumented slow path, so turning the tracer on changes
    // nothing the oracle compares (tracing is host-side).
    k.trace.SetCapacity(flight_events);
    k.trace.Enable();
  }
  auto space = k.CreateSpace("audit");
  space->SetAnonRange(anon_base, anon_size);
  space->program = prog;
  Thread* t = k.CreateThread(space, prog);
  k.StartThread(t);
  k.finj.Arm();

  const bool quiesced = k.RunUntilQuiescent(max_time);
  if (flight != nullptr && flight_events != 0) {
    flight->captured = true;
    flight->events = k.trace.Snapshot();
    flight->end_ns = k.clock.now();
    flight->total = k.trace.total_recorded();
    flight->dropped = k.trace.dropped();
    flight->thread_names = TraceThreadNames(k);
    ++k.stats.flight_dumps;  // the bundle's stats self-report the capture
    flight->stats_json = StatsJson(k);
  }
  if (boundaries != nullptr) {
    *boundaries = k.finj.dispatch_boundaries();
  }
  if (extractions != nullptr) {
    *extractions = k.stats.extractions_forced;
  }
  if (restart_audits != nullptr) {
    *restart_audits = k.stats.restart_audits;
  }
  if (dump != nullptr) {
    *dump = DumpKernel(k);
  }
  if (!quiesced) {
    *why = "run did not quiesce within max_time";
    return false;
  }
  // The lineage-final thread: the original, or -- after a forced
  // extraction -- the successor created in its place (threads_ is
  // append-only; dead predecessors remain listed).
  if (k.threads().empty()) {
    *why = "no threads after run";
    return false;
  }
  const Thread* last = k.threads().back();
  if (last->run_state != ThreadRun::kDead) {
    *why = "final thread did not exit";
    return false;
  }

  AuditSnapshot s;
  s.regs = last->regs;
  s.exit_code = last->exit_code;
  s.final_time = k.clock.now();
  s.user_instructions = k.stats.user_instructions;
  s.context_switches = k.stats.context_switches;
  s.syscalls = k.stats.syscalls;
  s.syscall_restarts = k.stats.syscall_restarts;
  s.kernel_preemptions = k.stats.kernel_preemptions;
  s.soft_faults = k.stats.soft_faults;
  s.hard_faults = k.stats.hard_faults;
  s.user_faults = k.stats.user_faults;
  for (const auto& [page, pte] : space->page_table()) {
    (void)pte;
    std::vector<uint8_t> data(kPageSize);
    const uint32_t vaddr = page << kPageShift;
    const Span sp = space->TranslateSpan(vaddr, kPageSize, kProtNone);
    if (sp.len != kPageSize) {
      *why = "page translation failed during snapshot";
      return false;
    }
    std::memcpy(data.data(), sp.ptr, kPageSize);
    s.pages.emplace_back(vaddr, std::move(data));
  }
  std::sort(s.pages.begin(), s.pages.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  *out = std::move(s);
  return true;
}

// Names the first snapshot component that differs, for the failure report.
std::string DescribeDivergence(const AuditSnapshot& want, const AuditSnapshot& got) {
  char buf[160];
  if (!(want.regs == got.regs)) {
    std::snprintf(buf, sizeof(buf), "registers differ (pc %u vs %u, A %u vs %u, B %u vs %u)",
                  want.regs.pc, got.regs.pc, want.regs.gpr[kRegA], got.regs.gpr[kRegA],
                  want.regs.gpr[kRegB], got.regs.gpr[kRegB]);
    return buf;
  }
  if (want.exit_code != got.exit_code) {
    std::snprintf(buf, sizeof(buf), "exit code %u vs %u", want.exit_code, got.exit_code);
    return buf;
  }
  if (want.final_time != got.final_time) {
    std::snprintf(buf, sizeof(buf), "final virtual time %llu vs %llu",
                  static_cast<unsigned long long>(want.final_time),
                  static_cast<unsigned long long>(got.final_time));
    return buf;
  }
  if (want.user_instructions != got.user_instructions) {
    std::snprintf(buf, sizeof(buf), "user_instructions %llu vs %llu",
                  static_cast<unsigned long long>(want.user_instructions),
                  static_cast<unsigned long long>(got.user_instructions));
    return buf;
  }
  if (want.pages.size() != got.pages.size()) {
    std::snprintf(buf, sizeof(buf), "mapped page count %zu vs %zu", want.pages.size(),
                  got.pages.size());
    return buf;
  }
  for (size_t i = 0; i < want.pages.size(); ++i) {
    if (want.pages[i].first != got.pages[i].first) {
      std::snprintf(buf, sizeof(buf), "page %zu vaddr 0x%x vs 0x%x", i, want.pages[i].first,
                    got.pages[i].first);
      return buf;
    }
    if (want.pages[i].second != got.pages[i].second) {
      std::snprintf(buf, sizeof(buf), "page 0x%x contents differ", want.pages[i].first);
      return buf;
    }
  }
  return "stats counters differ";
}

}  // namespace

ProgramRef BuildAuditProgram(uint32_t anon_base) {
  Assembler a("audit");
  const int A = kRegA, B = kRegB, C = kRegC, SI = kRegSI, DI = kRegDI, BP = kRegBP, SP = kRegSP;
  (void)A;

  // Phase 1: a 24-iteration mixing loop (~220 retired instructions) so the
  // sweep has a dense run of pure-compute dispatch boundaries. SP is the
  // running checksum the whole program folds into.
  a.MovImm(SP, 0x9E3779B9u);
  a.MovImm(BP, 0);
  a.MovImm(DI, 24);
  const auto loop = a.NewLabel();
  const auto loop_done = a.NewLabel();
  a.Bind(loop);
  a.Bge(BP, DI, loop_done);
  a.MovImm(C, 2654435761u);
  a.Mul(SI, BP, C);
  a.Xor(SP, SP, SI);
  a.MovImm(C, 13);
  a.Shl(SI, SP, C);
  a.Add(SP, SP, SI);
  a.AddImm(BP, BP, 1);
  a.Jmp(loop);
  a.Bind(loop_done);

  // Phase 2: stores and loads across three anonymous pages -- each first
  // touch is a zero-fill user fault, so boundaries fall inside the
  // fault-resolution path too.
  a.MovImm(B, anon_base);
  a.StoreW(SP, B, 0);
  a.AddImm(SP, SP, 7);
  a.StoreW(SP, B, kPageSize);
  a.AddImm(SP, SP, 7);
  a.StoreW(SP, B, 2 * kPageSize + 4);
  a.LoadW(C, B, 0);
  a.Add(SP, SP, C);
  a.LoadW(C, B, kPageSize);
  a.Xor(SP, SP, C);
  a.StoreB(SP, B, 2 * kPageSize + 0xF00);
  a.LoadB(C, B, 2 * kPageSize + 0xF00);
  a.Add(SP, SP, C);

  // Phase 3: syscalls. A trivial call, a virtual-time read folded into the
  // checksum (times must match exactly for it to survive the oracle), a
  // mutex create/trylock/unlock chain whose handle and result codes feed
  // the checksum, and a short sleep so one boundary set lands on a thread
  // carrying a blocked-op restart.
  EmitSys(a, kSysNull);
  EmitSys(a, kSysClockGet);
  a.Add(SP, SP, B);  // B = current virtual time in microseconds
  EmitSys(a, kSysMutexCreate);
  a.Add(SP, SP, B);             // B = mutex handle (slot allocation is deterministic)
  EmitSys(a, kSysMutexTrylock);  // B still holds the handle
  a.Add(SP, SP, A);              // result code (kFlukeOk)
  EmitSys(a, kSysMutexUnlock);
  a.Add(SP, SP, A);
  EmitSys(a, kSysClockSleep, 50);  // 50us; wakes via the event queue
  EmitSys(a, kSysClockGet);
  a.Add(SP, SP, B);

  // Phase 4: a second short store burst after the sleep, then exit with the
  // checksum (Halt's exit code is register B).
  a.MovImm(B, anon_base);
  a.StoreW(SP, B, 8);
  a.LoadW(C, B, 8);
  a.Add(SP, SP, C);
  a.Mov(B, SP);
  a.Halt();
  return a.Build();
}

AuditResult RunAtomicityAudit(const KernelConfig& base_cfg, const ProgramRef& prog,
                              uint32_t anon_base, uint32_t anon_size, Time max_time,
                              size_t flight_events) {
  AuditResult result;
  ProgramRegistry registry;
  registry.Register(prog);

  FaultPlan golden_plan;
  golden_plan.enabled = true;
  golden_plan.single_step = true;
  AuditSnapshot golden;
  std::string why;
  if (!RunOnce(base_cfg, golden_plan, prog, anon_base, anon_size, max_time, &registry, 0, nullptr,
               &golden, &result.boundaries, nullptr, nullptr, nullptr, &why)) {
    result.error = "golden run failed: " + why;
    return result;
  }
  if (result.boundaries == 0) {
    result.error = "golden run saw no dispatch boundaries";
    return result;
  }

  for (uint64_t b = 0; b < result.boundaries; ++b) {
    FaultPlan plan = golden_plan;
    plan.extract_at = b;
    AuditSnapshot got;
    uint64_t extractions = 0;
    uint64_t audits = 0;
    std::string dump;
    AuditFlight flight;
    char buf[128];
    if (!RunOnce(base_cfg, plan, prog, anon_base, anon_size, max_time, &registry, flight_events,
                 &flight, &got, nullptr, &extractions, &audits, &dump, &why)) {
      std::snprintf(buf, sizeof(buf), "extraction at boundary %llu: ",
                    static_cast<unsigned long long>(b));
      result.failed_boundary = b;
      result.error = buf + why;
      result.divergent_dump = std::move(dump);
      result.flight = std::move(flight);
      return result;
    }
    if (extractions != 1 || audits != 1) {
      std::snprintf(buf, sizeof(buf),
                    "boundary %llu: expected 1 extraction + 1 completed audit, got %llu/%llu",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(extractions),
                    static_cast<unsigned long long>(audits));
      result.failed_boundary = b;
      result.error = buf;
      result.divergent_dump = std::move(dump);
      result.flight = std::move(flight);
      return result;
    }
    if (!(got == golden)) {
      std::snprintf(buf, sizeof(buf), "boundary %llu diverged: ",
                    static_cast<unsigned long long>(b));
      result.failed_boundary = b;
      result.error = buf + DescribeDivergence(golden, got);
      result.divergent_dump = std::move(dump);
      result.flight = std::move(flight);
      return result;
    }
    ++result.audited;
  }
  result.ok = true;
  return result;
}

}  // namespace fluke
