// The atomicity audit: the chaos kernel's oracle for the paper's central
// claim (section 3) that every kernel operation is interruptible and every
// thread's state extractable promptly and correctly at ANY instant.
//
// The audit runs a deterministic single-threaded workload once untouched
// (the golden run), in single-step mode so every retired instruction is its
// own dispatch boundary. It then re-runs the workload once per boundary,
// forcing an extract-destroy-recreate of the thread at exactly that
// boundary (FaultPlan::extract_at), and requires the final user-visible
// machine state -- registers, exit code, every mapped page's contents,
// virtual time, and the semantic stats counters -- to be bit-identical to
// the golden run. Any divergence means some kernel state was NOT captured
// by the registers at that boundary, i.e. the operation straddling it was
// not atomic.

#ifndef SRC_WORKLOADS_AUDIT_H_
#define SRC_WORKLOADS_AUDIT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/kernel.h"

namespace fluke {

// Everything the golden run can observe about a finished workload. The
// extraction-swept runs must match it exactly. Engine-observability
// counters (tlb_*, jit_*) are deliberately excluded -- they are allowed to
// differ across engines and across shared per-program JIT state -- but
// user_instructions is included: it is semantic.
struct AuditSnapshot {
  UserRegisters regs{};
  uint32_t exit_code = 0;
  Time final_time = 0;
  uint64_t user_instructions = 0;
  uint64_t context_switches = 0;
  uint64_t syscalls = 0;
  uint64_t syscall_restarts = 0;
  uint64_t kernel_preemptions = 0;
  uint64_t soft_faults = 0;
  uint64_t hard_faults = 0;
  uint64_t user_faults = 0;
  // (vaddr, page contents) for every mapped page, sorted by vaddr.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;

  bool operator==(const AuditSnapshot&) const = default;
};

// Flight-recorder capture of a diverging run: the last `flight_events`
// trace events plus the full stats snapshot, carried out of the sweep so
// the caller can write a postmortem bundle. Captured only when the audit
// was invoked with flight_events != 0 and a sweep run failed -- tracing
// inside the sweep is host-side (the injector is armed, so the swept
// kernels already run the instrumented slow path) and cannot perturb the
// audited virtual-time behavior.
struct AuditFlight {
  bool captured = false;
  std::vector<TraceEvent> events;
  Time end_ns = 0;
  uint64_t total = 0;
  uint64_t dropped = 0;
  std::vector<std::pair<uint64_t, std::string>> thread_names;
  std::string stats_json;
};

struct AuditResult {
  bool ok = false;
  uint64_t boundaries = 0;       // dispatch boundaries in the golden run
  uint64_t audited = 0;          // extraction points actually swept
  uint64_t failed_boundary = 0;  // first diverging boundary (when !ok)
  std::string error;             // human-readable failure description
  std::string divergent_dump;    // DumpKernel of the diverging run
  AuditFlight flight;            // postmortem capture of the diverging run
};

// Builds the audit workload: a deterministic single-threaded program of
// >= 200 instructions mixing ALU work, loads/stores across several anon
// pages, object-create/mutex/clock syscalls and a short sleep, halting with
// a checksum of everything it computed. `anon_base` is where its data
// lives.
ProgramRef BuildAuditProgram(uint32_t anon_base);

// Runs the full sweep described above for one kernel configuration.
// `max_time` bounds each individual run in virtual time. `flight_events`
// != 0 arms a flight-recorder ring of that many events inside every swept
// kernel; on divergence the diverging run's capture lands in
// AuditResult::flight.
AuditResult RunAtomicityAudit(const KernelConfig& base_cfg, const ProgramRef& prog,
                              uint32_t anon_base, uint32_t anon_size,
                              Time max_time = 60ull * 1000 * 1000 * 1000,
                              size_t flight_events = 0);

}  // namespace fluke

#endif  // SRC_WORKLOADS_AUDIT_H_
