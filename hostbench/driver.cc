// One repetition of one host-time benchmark workload, in a fresh process.
//
// run.py launches this driver once per repetition, so no repetition sees the
// heap a previous kernel leaked. The driver builds the workload through the
// simulator's public calls into kern and workloads, times the region around
// them with the host's monotonic clock, checks the run's virtual results, and
// prints one JSON object on stdout. Only this file reads timers: the
// kernel's own tracer stays disarmed, so the timed code is the code users
// run.
//
// Workloads (every KernelConfig knob at its default):
//   apps  Table 5: memtest, flukeperf and gcc at paper parameters on the five
//         paper configurations, 1 CPU.
//   c1m   BuildC1mWorkload with 20464 clients (the page-aligned count nearest
//         20000), 1 CPU.
//   mp    the c1m shape at num_cpus = 4.
//   ckpt  the c1m shape with a ConcurrentCkpt every 50 virtual ms (deltas
//         after the first), each image serialized and committed into a
//         MemCkptStore; then RecoverLatest + RestoreMachine into a fresh
//         kernel, replayed to the checkpointed run's end state.
//
// --variant (0..7, derived from the benchmark seed) moves only the c1m sweep
// delay and the checkpoint phase. --trace 1 additionally records a span
// around every call, with KernelStats deltas at the same boundaries; spans
// are kept in memory and printed with the result.
//
// Usage: hostbench_driver --workload apps|c1m|mp|ckpt [--variant N]
//                         [--trace 0|1] [--run-id ID] [--smoke]

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/kern/config.h"
#include "src/kern/inspect.h"
#include "src/kern/kernel.h"
#include "src/workloads/apps.h"
#include "src/workloads/checkpoint.h"
#include "src/workloads/ckpt_image.h"
#include "src/workloads/restart_log.h"

namespace fluke {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Heap bytes in use across every malloc arena, including mmapped chunks.
int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

long PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string U64(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

// KernelStats counters recorded as deltas at span boundaries. Only fields no
// ROADMAP item plans to remove; counters that may disappear are read by key
// from StatsJson at the end of the run instead.
struct DeltaKey {
  const char* name;
  uint64_t KernelStats::*field;
};
constexpr DeltaKey kDeltaKeys[] = {
    {"syscalls", &KernelStats::syscalls},
    {"context_switches", &KernelStats::context_switches},
    {"user_instructions", &KernelStats::user_instructions},
    {"syscall_fast_entries", &KernelStats::syscall_fast_entries},
    {"ipc_fast_handoffs", &KernelStats::ipc_fast_handoffs},
    {"soft_faults", &KernelStats::soft_faults},
    {"hard_faults", &KernelStats::hard_faults},
    {"timer_arms", &KernelStats::timer_arms},
    {"ckpt_cow_saves", &KernelStats::ckpt_cow_saves},
    {"ckpt_mark_pages", &KernelStats::ckpt_mark_pages},
};
constexpr size_t kNumDeltaKeys = sizeof(kDeltaKeys) / sizeof(kDeltaKeys[0]);

struct Span {
  const char* name = "";
  std::string detail;
  int parent = -1;
  int64_t start = 0;
  int64_t end = 0;
  bool has_delta = false;
  uint64_t delta[kNumDeltaKeys] = {};
};

// In-memory span recorder. Disarmed, Begin/End return at once without
// reading the clock, so untraced repetitions time only the e2e region.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) {
      spans_.reserve(size_t{1} << 12);
    }
  }

  int Begin(const char* name, const KernelStats* s = nullptr, std::string detail = {}) {
    if (!on_) {
      return -1;
    }
    Span sp;
    sp.name = name;
    sp.detail = std::move(detail);
    sp.parent = open_;
    if (s != nullptr) {
      sp.has_delta = true;
      for (size_t i = 0; i < kNumDeltaKeys; ++i) {
        sp.delta[i] = s->*kDeltaKeys[i].field;
      }
    }
    sp.start = NowNs();
    spans_.push_back(std::move(sp));
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void End(int id, const KernelStats* s = nullptr) {
    if (!on_ || id < 0) {
      return;
    }
    Span& sp = spans_[static_cast<size_t>(id)];
    sp.end = NowNs();
    if (sp.has_delta && s != nullptr) {
      for (size_t i = 0; i < kNumDeltaKeys; ++i) {
        sp.delta[i] = s->*kDeltaKeys[i].field - sp.delta[i];
      }
    }
    open_ = sp.parent;
  }

  // For calls that build their own kernel (the app entry points): the
  // returned totals are the deltas.
  void SetDelta(int id, const KernelStats& s) {
    if (!on_ || id < 0) {
      return;
    }
    Span& sp = spans_[static_cast<size_t>(id)];
    sp.has_delta = true;
    for (size_t i = 0; i < kNumDeltaKeys; ++i) {
      sp.delta[i] = s.*kDeltaKeys[i].field;
    }
  }

  std::string Json(const std::string& run_id) const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out += i == 0 ? "" : ",";
      out += "{\"name\":" + Quote(sp.name) + ",\"detail\":" + Quote(sp.detail) +
             ",\"run\":" + Quote(run_id) + ",\"parent\":" + std::to_string(sp.parent) +
             ",\"start_ns\":" + std::to_string(sp.start) +
             ",\"end_ns\":" + std::to_string(sp.end);
      if (sp.has_delta) {
        out += ",\"delta\":{";
        for (size_t k = 0; k < kNumDeltaKeys; ++k) {
          out += (k == 0 ? "\"" : ",\"") + std::string(kDeltaKeys[k].name) +
                 "\":" + U64(sp.delta[k]);
        }
        out += "}";
      }
      out += "}";
    }
    return out + "]";
  }

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Closes its span on scope exit.
class Scope {
 public:
  Scope(Tracer& t, const char* name, const KernelStats* s = nullptr, std::string detail = {})
      : t_(t), s_(s), id_(t.Begin(name, s, std::move(detail))) {}
  ~Scope() { t_.End(id_, s_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  const KernelStats* s_;
  int id_;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Outcome {
  int64_t setup_ns = 0;  // 0 for apps, whose set-up is inside the entry points
  int64_t wall_ns = 0;
  std::vector<int64_t> calls_ns;  // apps: host ns of each app run, in order
  uint64_t instructions = 0;
  long peak_rss_kb = 0;
  int64_t retained_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // Per-layer work counts, keyed as in StatsJson.
  std::vector<std::pair<std::string, uint64_t>> stats;
  std::vector<std::string> absent;  // StatsJson keys this build no longer has
  // Raw JSON members run.py checks: pinned values and the virtual results
  // that must repeat across the repetitions of one invocation.
  std::string virt = "{}";

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
};

// Value of a top-level unsigned counter in a StatsJson document.
bool JsonCounter(const std::string& doc, const std::string& key, uint64_t* out) {
  const std::string pat = "\"" + key + "\": ";
  const size_t p = doc.find(pat);
  if (p == std::string::npos) {
    return false;
  }
  const char* s = doc.c_str() + p + pat.size();
  if (*s < '0' || *s > '9') {
    return false;
  }
  *out = std::strtoull(s, nullptr, 10);
  return true;
}

// Counters the per-layer metrics read, by StatsJson key.
constexpr const char* kStatKeys[] = {
    "virtual_time_ns", "user_instructions", "jit_block_entries", "jit_deopts",
    "syscalls", "syscall_fast_entries", "ipc_fast_handoffs", "frames_allocated",
    "context_switches", "timer_arms", "timer_cancels", "timer_cascades",
    "sched_bitmap_scans", "hard_faults", "soft_faults", "tlb_hits", "tlb_misses",
    "mp_epochs", "cross_cpu_ipc", "mp_barrier_waits", "ckpt_generations",
    "ckpt_cow_saves", "ckpt_mark_pages",
};

// Semantic counters: identical on every run of one workload shape.
constexpr const char* kVirtualKeys[] = {
    "virtual_time_ns", "user_instructions", "syscalls", "context_switches",
    "timer_arms", "timer_cancels", "timer_cascades", "sched_bitmap_scans",
    "soft_faults", "hard_faults", "mp_epochs", "cross_cpu_ipc", "ckpt_generations",
    "ckpt_cow_saves", "ckpt_mark_pages",
};

void ReadStats(const Kernel& k, Outcome* out, std::string* virt_members) {
  const std::string doc = StatsJson(k);
  for (const char* key : kStatKeys) {
    uint64_t v = 0;
    if (JsonCounter(doc, key, &v)) {
      out->stats.emplace_back(key, v);
    } else {
      out->absent.emplace_back(key);
    }
  }
  for (const char* key : kVirtualKeys) {
    uint64_t v = 0;
    if (JsonCounter(doc, key, &v)) {
      *virt_members +=
          (virt_members->empty() ? "\"" : ",\"") + std::string(key) + "\":" + U64(v);
    }
  }
}

// ---------------------------------------------------------------------------
// apps: Table 5.
// ---------------------------------------------------------------------------

void RunApps(bool smoke, Tracer& tr, Outcome* out) {
  // Smoke mode keeps the paper parameters (so the pinned values apply) on
  // the two configurations the per-layer fast/slow syscall split reads.
  const std::vector<int> configs =
      smoke ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 3, 4};
  struct Record {
    std::string config;
    const char* app;
    AppResult r;
    int64_t host_ns;
  };
  std::vector<Record> recs;
  recs.reserve(configs.size() * 3);

  const int64_t t0 = NowNs();
  {
    Scope wall(tr, "bench.wall");
    for (const int i : configs) {
      const KernelConfig cfg = PaperConfig(i);
      const std::string label = cfg.Label();
      // Each app run is timed on its own, traced or not: run.py takes each
      // run's best time across repetitions.
      auto app = [&](const char* span, const char* name, auto entry) {
        Scope s(tr, span, nullptr, label);
        const int64_t a = NowNs();
        AppResult r = entry(cfg);
        recs.push_back({label, name, r, NowNs() - a});
        tr.SetDelta(s.id(), r.stats);
      };
      app("workloads.RunMemtest", "memtest",
          [](const KernelConfig& c) { return RunMemtest(c); });
      app("workloads.RunFlukeperf", "flukeperf",
          [](const KernelConfig& c) { return RunFlukeperf(c); });
      app("workloads.RunGcc", "gcc", [](const KernelConfig& c) { return RunGcc(c); });
    }
  }
  out->wall_ns = NowNs() - t0;
  out->peak_rss_kb = PeakRssKb();

  // Fields no ROADMAP item plans to remove; apps never run MP.
  struct Field {
    const char* key;
    uint64_t KernelStats::*field;
  };
  static constexpr Field kFields[] = {
      {"user_instructions", &KernelStats::user_instructions},
      {"jit_block_entries", &KernelStats::jit_block_entries},
      {"jit_deopts", &KernelStats::jit_deopts},
      {"syscalls", &KernelStats::syscalls},
      {"syscall_fast_entries", &KernelStats::syscall_fast_entries},
      {"ipc_fast_handoffs", &KernelStats::ipc_fast_handoffs},
      {"frames_allocated", &KernelStats::frames_allocated},
      {"context_switches", &KernelStats::context_switches},
      {"timer_arms", &KernelStats::timer_arms},
      {"timer_cancels", &KernelStats::timer_cancels},
      {"timer_cascades", &KernelStats::timer_cascades},
      {"sched_bitmap_scans", &KernelStats::sched_bitmap_scans},
      {"hard_faults", &KernelStats::hard_faults},
      {"soft_faults", &KernelStats::soft_faults},
      {"tlb_hits", &KernelStats::tlb_hits},
      {"tlb_misses", &KernelStats::tlb_misses},
  };
  for (const Field& f : kFields) {
    uint64_t sum = 0;
    for (const Record& rec : recs) {
      sum += rec.r.stats.*f.field;
    }
    out->stats.emplace_back(f.key, sum);
  }

  // Each run is checked against the pinned Table 5 values by run.py.
  std::string runs;
  for (const Record& rec : recs) {
    out->instructions += rec.r.stats.user_instructions;
    runs += (runs.empty() ? "" : ",") + std::string("{\"config\":") + Quote(rec.config) +
            ",\"app\":" + Quote(rec.app) + ",\"completed\":" +
            (rec.r.completed ? "true" : "false") + ",\"elapsed_ns\":" + U64(rec.r.elapsed_ns) +
            ",\"context_switches\":" + U64(rec.r.stats.context_switches) + "}";
    out->calls_ns.push_back(rec.host_ns);
  }
  out->virt = "{\"apps\":[" + runs + "]}";
}

// ---------------------------------------------------------------------------
// c1m, mp, ckpt.
// ---------------------------------------------------------------------------

constexpr uint32_t kClients = 20464;
constexpr uint32_t kSmokeClients = 1008;  // also page-aligned: (N + 16) % 512 == 0

C1mParams ShapeFor(bool smoke, int variant) {
  C1mParams p;
  p.clients = smoke ? kSmokeClients : kClients;
  // The auto-scaled delay BuildC1mWorkload would pick, moved by the variant.
  p.sweep_delay_us = 10000 + 30 * p.clients + static_cast<uint32_t>(variant) * 500;
  return p;
}

Time BudgetFor(const C1mParams& p) { return kNsPerMs * (2000 + 2ull * p.clients); }

bool RunThreadsDone(Kernel& k, const std::vector<Thread*>& threads, Time deadline) {
  for (Thread* t : threads) {
    if (k.clock.now() >= deadline || !k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      return false;
    }
  }
  return true;
}

void CheckFates(const std::vector<Thread*>& threads, const char* what, Outcome* out) {
  size_t bad = 0;
  for (const Thread* t : threads) {
    if (t->run_state != ThreadRun::kDead || t->exit_code != 0) {
      ++bad;
    }
  }
  out->Check(bad == 0, std::string(what) + ": " + std::to_string(bad) + " of " +
                           std::to_string(threads.size()) + " threads not dead with exit 0");
}

void RunC1mShape(int cpus, bool smoke, int variant, Tracer& tr, Outcome* out) {
  const C1mParams p = ShapeFor(smoke, variant);
  KernelConfig cfg;
  cfg.num_cpus = cpus;

  const int64_t t0 = NowNs();
  std::unique_ptr<Kernel> k;
  {
    Scope s(tr, "kern.Kernel");
    k = std::make_unique<Kernel>(cfg);
  }
  std::vector<Thread*> threads;
  {
    Scope s(tr, "workloads.BuildC1mWorkload", &k->stats);
    threads = BuildC1mWorkload(*k, p);
  }
  const int64_t t1 = NowNs();
  bool done = false;
  {
    Scope wall(tr, "bench.wall");
    Scope s(tr, "kern.RunUntilThreadDone", &k->stats);
    done = RunThreadsDone(*k, threads, k->clock.now() + BudgetFor(p));
  }
  const int64_t t2 = NowNs();
  out->setup_ns = t1 - t0;
  out->wall_ns = t2 - t1;
  out->peak_rss_kb = PeakRssKb();

  out->instructions = k->stats.user_instructions;
  std::string virt;
  ReadStats(*k, out, &virt);
  CheckFates(threads, done ? "run" : "run (budget exhausted)", out);
  if (cpus > 1) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(k->MpDigest()));
    virt += ",\"mp_digest\":\"" + std::string(digest) + "\"";
  }
  out->virt = "{" + virt + "}";

  Scope s(tr, "kern.~Kernel");
  k.reset();
}

// Clock- and generation-blind digest of a machine's full state, so a
// restored replay whose idle tail differs still compares equal.
uint64_t EndStateDigest(Kernel& k, std::string* error) {
  MachineImage img;
  if (!CaptureMachine(k, /*delta=*/false, &img, error)) {
    return 0;
  }
  img.clock_ns = 0;
  img.generation = 1;
  img.base_generation = 0;
  img.parent_digest = 0;
  return ImageDigest(SerializeMachine(img));
}

// Replays a restored machine until its clients and master finish, then
// compares its end state with the checkpointed run's.
void CheckReplay(Kernel& run, Kernel& restored, const std::vector<Thread*>& threads,
                 Time budget, Outcome* out) {
  std::vector<Thread*> finishers;
  for (Thread* t : threads) {
    const std::string name = t->program != nullptr ? t->program->name() : "";
    if (name == "c1m-client" || name == "c1m-master") {
      finishers.push_back(t);
    }
  }
  const bool done = RunThreadsDone(restored, finishers, restored.clock.now() + budget);
  std::string err_run, err_restored;
  const uint64_t want = EndStateDigest(run, &err_run);
  const uint64_t got = EndStateDigest(restored, &err_restored);
  size_t bad = 0;
  for (const Thread* t : finishers) {
    bad += t->run_state != ThreadRun::kDead || t->exit_code != 0;
  }
  out->Check(done && bad == 0 && want != 0 && want == got,
             "replay: " + std::to_string(bad) + " threads unfinished, end digest " + U64(got) +
                 " want " + U64(want) + " " + err_run + err_restored);
}

void RunCkpt(bool smoke, int variant, Tracer& tr, Outcome* out) {
  const C1mParams p = ShapeFor(smoke, variant);
  const Time every = smoke ? 5 * kNsPerMs : 50 * kNsPerMs;
  // Checkpoints fall `phase` before each multiple of `every`. The variant
  // also moves the run's end, so the count is capped below what every
  // variant reaches: each one commits the same number of generations.
  const Time phase = static_cast<Time>(variant) * (every / 16);
  const uint64_t generations = smoke ? 7 : 14;
  const KernelConfig cfg;
  ProgramRegistry registry;

  const int64_t t0 = NowNs();
  std::unique_ptr<Kernel> k;
  {
    Scope s(tr, "kern.Kernel");
    k = std::make_unique<Kernel>(cfg, &registry);
  }
  std::vector<Thread*> threads;
  {
    Scope s(tr, "workloads.BuildC1mWorkload", &k->stats);
    threads = BuildC1mWorkload(*k, p);
  }
  const int64_t t1 = NowNs();
  // Recovery re-binds programs by name; register the workload's few
  // distinct programs (outside every timed region).
  std::set<const Program*> seen;
  for (const auto& t : k->threads()) {
    if (t->program != nullptr && seen.insert(t->program.get()).second) {
      registry.Register(t->program);
    }
  }

  MemCkptStore store;
  ConcurrentCkpt cc;
  bool cc_delta = false;
  uint32_t prev_gen = 0;
  uint64_t prev_digest = 0;
  uint64_t committed = 0;
  uint64_t image_bytes = 0;
  bool commits_ok = true;
  auto commit = [&]() {
    MachineImage img;
    {
      Scope s(tr, "workloads.ConcurrentCkpt.Finish", &k->stats);
      img = cc.Finish();
    }
    img.generation = static_cast<uint32_t>(committed + 1);
    img.base_generation = cc_delta ? prev_gen : 0;
    img.parent_digest = cc_delta ? prev_digest : 0;
    std::vector<uint8_t> bytes;
    {
      Scope s(tr, "workloads.SerializeMachine");
      bytes = SerializeMachine(img);
    }
    {
      Scope s(tr, "workloads.CommitGeneration");
      commits_ok = CommitGeneration(store, img.generation, bytes) && commits_ok;
    }
    {
      Scope s(tr, "workloads.ImageDigest");
      prev_digest = ImageDigest(bytes);
    }
    prev_gen = img.generation;
    image_bytes += bytes.size();
    ++committed;
  };

  std::unique_ptr<Kernel> k2;
  MachineImage recovered;
  uint64_t recovered_gen = 0;
  std::string recover_err;
  bool recover_ok = false;
  MachineRestoreResult restored;
  bool done = true;
  bool begin_ok = true;
  {
    Scope wall(tr, "bench.wall");
    const Time deadline = k->clock.now() + BudgetFor(p);
    Time next_ckpt = k->clock.now() + every - phase;
    size_t ti = 0;
    while (ti < threads.size()) {
      if (threads[ti]->run_state == ThreadRun::kDead) {
        ++ti;  // most clients finish while an earlier one is being waited on
        continue;
      }
      if (cc.active() && cc.done()) {
        commit();
      }
      if (!cc.active() && committed < generations && k->clock.now() >= next_ckpt) {
        std::string err;
        const bool delta = committed > 0;
        Scope s(tr, "workloads.ConcurrentCkpt.Begin", &k->stats);
        if (cc.Begin(*k, delta, &err)) {
          cc_delta = delta;
        } else {
          begin_ok = false;
          out->errors.push_back("checkpoint refused: " + err);
        }
        next_ckpt += every;
      }
      if (k->clock.now() >= deadline) {
        done = false;
        break;
      }
      // Slice at the next checkpoint instant; while a capture is still
      // draining, poll in 1 ms slices.
      const Time target =
          std::min<Time>(deadline, std::max<Time>(next_ckpt, k->clock.now() + kNsPerMs));
      Scope s(tr, "kern.RunUntilThreadDone", &k->stats);
      if (k->RunUntilThreadDone(threads[ti], target - k->clock.now())) {
        ++ti;
      }
    }
    if (cc.active()) {
      {
        Scope s(tr, "kern.CkptDrainAll", &k->stats);
        k->CkptDrainAll();
      }
      commit();
    }
    {
      Scope s(tr, "kern.Kernel");
      k2 = std::make_unique<Kernel>(cfg, &registry);
    }
    {
      Scope s(tr, "workloads.RecoverLatest");
      recover_ok = RecoverLatest(store, &recovered, &recovered_gen, &recover_err);
    }
    if (recover_ok) {
      Scope s(tr, "workloads.RestoreMachine", &k2->stats);
      restored = RestoreMachine(*k2, recovered, registry, true);
    }
  }
  const int64_t t2 = NowNs();
  out->setup_ns = t1 - t0;
  out->wall_ns = t2 - t1;
  out->peak_rss_kb = PeakRssKb();
  out->instructions = k->stats.user_instructions;

  std::string virt;
  ReadStats(*k, out, &virt);
  CheckFates(threads, done ? "checkpointed run" : "checkpointed run (budget exhausted)", out);
  out->Check(begin_ok && commits_ok && committed > 0,
             "checkpoints: " + std::to_string(committed) + " committed, begin " +
                 (begin_ok ? "ok" : "refused") + ", store " + (commits_ok ? "ok" : "failed"));
  out->Check(recover_ok && recovered_gen == committed,
             "recovery: " + (recover_ok ? "generation " + U64(recovered_gen) + " of " +
                                              U64(committed)
                                        : recover_err));
  if (!recover_ok) {
    out->Check(false, "replay: nothing recovered");
  } else if (!restored.ok) {
    out->Check(false, "restore: " + restored.error);
  } else {
    CheckReplay(*k, *k2, restored.threads, BudgetFor(p), out);
  }
  virt += ",\"generations_committed\":" + U64(committed) +
          ",\"image_bytes\":" + U64(image_bytes) + ",\"recovered_generation\":" +
          U64(recovered_gen);
  out->virt = "{" + virt + "}";

  store.blobs().clear();
  recovered = MachineImage{};
  restored = MachineRestoreResult{};
  Scope s(tr, "kern.~Kernel");
  k2.reset();
  k.reset();
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench_driver --workload apps|c1m|mp|ckpt [--variant 0..7] "
               "[--trace 0|1] [--run-id ID] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const int64_t main_ns = NowNs();
  std::string workload;
  std::string run_id = "run";
  int variant = 0;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--variant" && has_value) {
      variant = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--run-id" && has_value) {
      run_id = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  if (variant < 0 || variant > 7) {
    return Usage();
  }

  Tracer tr(traced);
  Outcome out;
  const int64_t heap0 = HeapInUse();
  {
    Scope root(tr, "bench.run", nullptr, workload);
    if (workload == "apps") {
      RunApps(smoke, tr, &out);
    } else if (workload == "c1m") {
      RunC1mShape(1, smoke, variant, tr, &out);
    } else if (workload == "mp") {
      RunC1mShape(4, smoke, variant, tr, &out);
    } else if (workload == "ckpt") {
      RunCkpt(smoke, variant, tr, &out);
    } else {
      return Usage();
    }
  }
  // Every kernel is destroyed by now: what remains is what they leaked.
  out.retained_bytes = HeapInUse() - heap0;

  std::string stats;
  for (const auto& [key, v] : out.stats) {
    stats += (stats.empty() ? "\"" : ",\"") + key + "\":" + U64(v);
  }
  std::string absent;
  for (const std::string& key : out.absent) {
    absent += (absent.empty() ? "" : ",") + Quote(key);
  }
  std::string errors;
  for (const std::string& e : out.errors) {
    errors += (errors.empty() ? "" : ",") + Quote(e);
  }
  std::string calls;
  for (const int64_t ns : out.calls_ns) {
    calls += (calls.empty() ? "" : ",") + std::to_string(ns);
  }
  std::printf(
      "{\"workload\":%s,\"run_id\":%s,\"variant\":%d,\"smoke\":%s,\"traced\":%s,"
      "\"compiler\":%s,\"build_type\":%s,"
      "\"main_ns\":%lld,\"setup_ns\":%lld,\"wall_ns\":%lld,\"calls_ns\":[%s],"
      "\"instructions\":%llu,"
      "\"peak_rss_kb\":%ld,\"retained_bytes\":%lld,\"attempted\":%llu,\"failed\":%llu,"
      "\"errors\":[%s],\"stats\":{%s},\"absent\":[%s],\"virtual\":%s,"
      "\"spans\":%s}\n",
      Quote(workload).c_str(), Quote(run_id).c_str(), variant, smoke ? "true" : "false",
      traced ? "true" : "false", Quote(HOSTBENCH_COMPILER).c_str(),
      Quote(HOSTBENCH_BUILD_TYPE).c_str(), static_cast<long long>(main_ns),
      static_cast<long long>(out.setup_ns), static_cast<long long>(out.wall_ns), calls.c_str(),
      static_cast<unsigned long long>(out.instructions), out.peak_rss_kb,
      static_cast<long long>(out.retained_bytes), static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), errors.c_str(), stats.c_str(), absent.c_str(),
      out.virt.c_str(), tr.Json(run_id).c_str());
  return 0;
}

}  // namespace
}  // namespace fluke

int main(int argc, char** argv) { return fluke::Main(argc, argv); }
