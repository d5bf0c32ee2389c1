#include "src/kern/inspect.h"

#include <cstdio>

#include "src/kern/ipc.h"

namespace fluke {

namespace {

const char* BlockKindName(BlockKind b) {
  switch (b) {
    case BlockKind::kNone:
      return "-";
    case BlockKind::kWaitQueue:
      return "waitq";
    case BlockKind::kIpcWait:
      return "ipc";
    case BlockKind::kFaultWait:
      return "fault";
    case BlockKind::kStopSelf:
      return "stop";
  }
  return "?";
}

}  // namespace

std::string DumpThreads(const Kernel& k) {
  std::string out = "THREADS\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-4s %-14s %-9s %3s %-6s %-28s %s\n", "tid", "program",
                "state", "pri", "block", "restart point", "detail");
  out += line;
  for (const auto& t : k.threads()) {
    const char* prog = t->program != nullptr ? t->program->name().c_str() : "-";
    std::string restart = "-";
    std::string detail;
    if (t->run_state == ThreadRun::kBlocked || t->run_state == ThreadRun::kStopped) {
      // The committed restart state is fully describable.
      const uint32_t sys = t->regs.gpr[kRegA];
      if (t->program != nullptr && t->program->At(t->regs.pc) != nullptr &&
          t->program->At(t->regs.pc)->op == Op::kSyscall) {
        restart = SysName(sys);
        char d[96];
        std::snprintf(d, sizeof(d), "B=%u C=0x%x D=%u SI=0x%x DI=%u", t->regs.gpr[kRegB],
                      t->regs.gpr[kRegC], t->regs.gpr[kRegD], t->regs.gpr[kRegSI],
                      t->regs.gpr[kRegDI]);
        detail = d;
      } else {
        char d[48];
        std::snprintf(d, sizeof(d), "user pc=%u", t->regs.pc);
        restart = d;
      }
      if (t->ipc_peer != nullptr) {
        detail += " peer=t" + std::to_string(t->ipc_peer->id());
      }
    } else if (t->run_state == ThreadRun::kDead) {
      detail = "exit=" + std::to_string(t->exit_code);
    }
    std::snprintf(line, sizeof(line), "  %-4llu %-14.14s %-9s %3d %-6s %-28.28s %s\n",
                  static_cast<unsigned long long>(t->id()), prog, ThreadRunName(t->run_state),
                  t->priority, BlockKindName(t->block_kind), restart.c_str(), detail.c_str());
    out += line;
  }
  return out;
}

std::string DumpSpaces(const Kernel& k) {
  std::string out = "SPACES\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-4s %-16s %7s %9s %-20s %7s %s\n", "id", "name", "pages",
                "handles", "anon", "threads", "keeper");
  out += line;
  for (const auto& s : k.spaces()) {
    char anon[40] = "-";
    if (s->anon_size() != 0) {
      std::snprintf(anon, sizeof(anon), "0x%x+0x%x", s->anon_base(), s->anon_size());
    }
    size_t alive_threads = 0;
    for (const Thread* t : s->threads) {
      if (t->run_state != ThreadRun::kDead) {
        ++alive_threads;
      }
    }
    std::snprintf(line, sizeof(line), "  %-4llu %-16.16s %7zu %9zu %-20s %7zu %s\n",
                  static_cast<unsigned long long>(s->id()), s->name().c_str(), s->mapped_pages(),
                  s->handle_count(), anon, alive_threads,
                  s->keeper != nullptr ? "port" : "-");
    out += line;
  }
  return out;
}

std::string DumpKernel(const Kernel& k) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "FLUKE %s | t=%.3fms | syscalls=%llu (restarts=%llu) switches=%llu "
                "faults=%llu/%llu (soft/hard) preemptions=%llu\n",
                k.cfg.Label().c_str(), static_cast<double>(k.clock.now()) / kNsPerMs,
                static_cast<unsigned long long>(k.stats.syscalls),
                static_cast<unsigned long long>(k.stats.syscall_restarts),
                static_cast<unsigned long long>(k.stats.context_switches),
                static_cast<unsigned long long>(k.stats.soft_faults),
                static_cast<unsigned long long>(k.stats.hard_faults),
                static_cast<unsigned long long>(k.stats.kernel_preemptions));
  std::string out(line);
  if (k.cfg.num_cpus > 1) {
    std::snprintf(line, sizeof(line),
                  "MP cpus=%d epochs=%llu cross_cpu_ipc=%llu migrations=%llu "
                  "shootdowns_remote=%llu digest=%016llx\n",
                  k.cfg.num_cpus, static_cast<unsigned long long>(k.stats.mp_epochs),
                  static_cast<unsigned long long>(k.stats.cross_cpu_ipc),
                  static_cast<unsigned long long>(k.stats.migrations),
                  static_cast<unsigned long long>(k.stats.shootdowns_remote),
                  static_cast<unsigned long long>(k.MpDigest()));
    out += line;
  }
  if (k.stats.faults_injected + k.stats.extractions_forced + k.stats.restart_audits +
          k.stats.oom_backoffs + k.stats.panics !=
      0) {
    std::snprintf(line, sizeof(line),
                  "CHAOS faults_injected=%llu extractions_forced=%llu restart_audits=%llu "
                  "oom_backoffs=%llu panics=%llu user_instrs=%llu\n",
                  static_cast<unsigned long long>(k.stats.faults_injected),
                  static_cast<unsigned long long>(k.stats.extractions_forced),
                  static_cast<unsigned long long>(k.stats.restart_audits),
                  static_cast<unsigned long long>(k.stats.oom_backoffs),
                  static_cast<unsigned long long>(k.stats.panics),
                  static_cast<unsigned long long>(k.stats.user_instructions));
    out += line;
  }
  if (k.stats.ckpt_generations != 0) {
    std::snprintf(line, sizeof(line),
                  "CKPT generations=%llu pages_full=%llu pages_delta=%llu "
                  "mark_pages=%llu cow_saves=%llu pause_max_ns=%llu\n",
                  static_cast<unsigned long long>(k.stats.ckpt_generations),
                  static_cast<unsigned long long>(k.stats.ckpt_pages_full),
                  static_cast<unsigned long long>(k.stats.ckpt_pages_delta),
                  static_cast<unsigned long long>(k.stats.ckpt_mark_pages),
                  static_cast<unsigned long long>(k.stats.ckpt_cow_saves),
                  static_cast<unsigned long long>(k.stats.ckpt_pause_hist.Max()));
    out += line;
  }
  return out + DumpThreads(k) + DumpSpaces(k);
}

namespace {

std::string HistJson(const LogHistogram& h) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"sum_ns\":%llu,\"max_ns\":%llu,\"avg_ns\":%llu,"
                "\"p50_ns\":%llu,\"p95_ns\":%llu,\"buckets\":[",
                static_cast<unsigned long long>(h.count), static_cast<unsigned long long>(h.sum),
                static_cast<unsigned long long>(h.max), static_cast<unsigned long long>(h.Avg()),
                static_cast<unsigned long long>(h.Percentile(0.50)),
                static_cast<unsigned long long>(h.Percentile(0.95)));
  std::string out(buf);
  bool first = true;
  for (int b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s[%d,%llu]", first ? "" : ",", b,
                  static_cast<unsigned long long>(h.buckets[b]));
    out += buf;
    first = false;
  }
  return out + "]}";
}

}  // namespace

std::string StatsJson(const Kernel& k) {
  const KernelStats& s = k.stats;
  std::string out = "{\n";
  char buf[160];
  auto field = [&](const char* name, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "  \"%s\": %llu,\n", name,
                  static_cast<unsigned long long>(v));
    out += buf;
  };

  // Schema history: 1 = the unversioned original (no "schema" key);
  // 2 = adds the observability-pipeline counters (trace_bin_*, flight_dumps,
  // metrics_samples). Consumers (tools/bench_report.py) reject schemas they
  // do not know rather than silently mis-reading renamed counters.
  out += "  \"schema\": 2,\n";
  std::snprintf(buf, sizeof(buf), "  \"config\": \"%s\",\n", k.cfg.Label().c_str());
  out += buf;
  field("virtual_time_ns", k.clock.now());
  field("context_switches", s.context_switches);
  field("syscalls", s.syscalls);
  field("syscall_restarts", s.syscall_restarts);
  field("kernel_preemptions", s.kernel_preemptions);
  field("soft_faults", s.soft_faults);
  field("hard_faults", s.hard_faults);
  field("user_faults", s.user_faults);
  field("region_pages_scanned", s.region_pages_scanned);
  field("syscall_faults", s.syscall_faults);
  field("tlb_hits", s.tlb_hits);
  field("tlb_misses", s.tlb_misses);
  field("tlb_flushes", s.tlb_flushes);
  field("jit_compiles", s.jit_compiles);
  field("jit_block_entries", s.jit_block_entries);
  field("jit_deopts", s.jit_deopts);
  field("jit_bytes", s.jit_bytes);
  field("user_instructions", s.user_instructions);
  field("faults_injected", s.faults_injected);
  field("extractions_forced", s.extractions_forced);
  field("restart_audits", s.restart_audits);
  field("oom_backoffs", s.oom_backoffs);
  field("panics", s.panics);
  field("syscall_fast_entries", s.syscall_fast_entries);
  field("ipc_fast_handoffs", s.ipc_fast_handoffs);
  field("timer_arms", s.timer_arms);
  field("timer_cancels", s.timer_cancels);
  field("timer_cascades", s.timer_cascades);
  field("slab_thread_allocs", s.slab_thread_allocs);
  field("sched_bitmap_scans", s.sched_bitmap_scans);
  field("mp_epochs", s.mp_epochs);
  field("cross_cpu_ipc", s.cross_cpu_ipc);
  field("migrations", s.migrations);
  field("shootdowns_remote", s.shootdowns_remote);
  field("rollback_ns", s.rollback_ns);
  field("remedy_soft_ns", s.remedy_soft_ns);
  field("remedy_hard_ns", s.remedy_hard_ns);
  field("frames_allocated", s.frames_allocated);
  field("frame_bytes_allocated", s.frame_bytes_allocated);
  field("frame_bytes_live", s.frame_bytes_live);
  field("frame_bytes_live_peak", s.frame_bytes_live_peak);
  field("blocked_frame_bytes_peak", s.blocked_frame_bytes_peak);
  field("probe_runs", s.probe_runs);
  field("probe_misses", s.probe_misses);
  field("ckpt_generations", s.ckpt_generations);
  field("ckpt_pages_full", s.ckpt_pages_full);
  field("ckpt_pages_delta", s.ckpt_pages_delta);
  field("ckpt_cow_saves", s.ckpt_cow_saves);
  field("ckpt_mark_pages", s.ckpt_mark_pages);
  field("trace_events_recorded", k.trace.total_recorded());
  field("trace_events_dropped", k.trace.dropped());
  field("trace_bin_chunks", s.trace_bin_chunks);
  field("trace_bin_bytes", s.trace_bin_bytes);
  field("flight_dumps", s.flight_dumps);
  field("metrics_samples", s.metrics_samples);

  if (k.cfg.num_cpus > 1) {
    std::snprintf(buf, sizeof(buf), "  \"mp_digest\": \"%016llx\",\n",
                  static_cast<unsigned long long>(k.MpDigest()));
    out += buf;
    out += "  \"per_cpu\": [\n";
    for (const Cpu& c : k.cpus()) {
      std::snprintf(buf, sizeof(buf),
                    "    {\"cpu\":%d,\"dispatches\":%llu,\"bursts\":%llu,"
                    "\"digest\":\"%016llx\"}%s\n",
                    c.id, static_cast<unsigned long long>(c.dispatches),
                    static_cast<unsigned long long>(c.bursts),
                    static_cast<unsigned long long>(c.digest),
                    c.id + 1 == k.cfg.num_cpus ? "" : ",");
      out += buf;
    }
    out += "  ],\n";
  }

  out += "  \"ipc_faults\": {\n";
  static const char* kSides[2] = {"client", "server"};
  static const char* kKinds[2] = {"soft", "hard"};
  for (int side = 0; side < 2; ++side) {
    for (int kind = 0; kind < 2; ++kind) {
      const FaultClassStats& f = s.ipc_faults[side][kind];
      std::snprintf(buf, sizeof(buf),
                    "    \"%s_%s\": {\"count\":%llu,\"remedy_ns\":%llu,\"rollback_ns\":%llu}%s\n",
                    kSides[side], kKinds[kind], static_cast<unsigned long long>(f.count),
                    static_cast<unsigned long long>(f.remedy_ns),
                    static_cast<unsigned long long>(f.rollback_ns),
                    side == 1 && kind == 1 ? "" : ",");
      out += buf;
    }
  }
  out += "  },\n";

  out += "  \"probe_hist\": " + HistJson(s.probe_hist) + ",\n";
  out += "  \"block_hist\": " + HistJson(s.block_hist) + ",\n";
  out += "  \"ckpt_pause_hist\": " + HistJson(s.ckpt_pause_hist) + ",\n";
  out += "  \"syscalls_hist\": {";
  bool first = true;
  for (uint32_t sys = 0; sys < kSysCount; ++sys) {
    if (s.sys_time_hist[sys].empty()) {
      continue;
    }
    out += first ? "\n" : ",\n";
    out += std::string("    \"") + SysName(sys) + "\": " + HistJson(s.sys_time_hist[sys]);
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace fluke
