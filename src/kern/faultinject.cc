#include "src/kern/faultinject.h"

#include <cstdio>
#include <cstdlib>

#include "src/base/wire.h"

namespace fluke {

const char* FaultHookName(FaultHook h) {
  switch (h) {
    case FaultHook::kDispatch:
      return "dispatch";
    case FaultHook::kSyscallEntry:
      return "syscall";
    case FaultHook::kIpcChunk:
      return "ipc_chunk";
    case FaultHook::kPageFault:
      return "page_fault";
    case FaultHook::kFrameAlloc:
      return "frame_alloc";
    case FaultHook::kHandleAlloc:
      return "handle_alloc";
    case FaultHook::kPortConnect:
      return "port_connect";
    case FaultHook::kInterpBoundary:
      return "interp";
    case FaultHook::kCount:
      break;
  }
  return "?";
}

void FaultInjector::Configure(const FaultPlan& plan, KernelStats* stats) {
  plan_ = plan;
  stats_ = stats;
  armed_ = false;
  rng_ = plan.seed;
  injected_ = 0;
  for (uint64_t& o : opportunities_) {
    o = 0;
  }
  schedule_.clear();
}

uint64_t FaultInjector::NextRand() {
  // SplitMix64: tiny, seedable, and independent of the kernel RNG.
  uint64_t z = (rng_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FaultInjector::RecordInjection(FaultHook h, uint64_t opportunity) {
  ++injected_;
  if (stats_ != nullptr) {
    ++stats_->faults_injected;
  }
  if (schedule_.size() < kMaxScheduleLog) {
    schedule_.push_back({h, opportunity});
  }
}

bool FaultInjector::ShouldExtract(uint64_t boundary) {
  if (!armed_ || boundary != plan_.extract_at) {
    return false;
  }
  RecordInjection(FaultHook::kDispatch, boundary);
  return true;
}

bool FaultInjector::ShouldCrash(uint64_t boundary) {
  if (!armed_ || boundary != plan_.crash_at) {
    return false;
  }
  RecordInjection(FaultHook::kDispatch, boundary);
  return true;
}

bool FaultInjector::EveryNth(FaultHook h, uint32_t every, uint32_t permille) {
  if (!armed_) {
    return false;
  }
  const uint64_t opp = opportunities_[static_cast<int>(h)]++;
  bool fail = every != 0 && (opp + 1) % every == 0;
  if (!fail && permille != 0) {
    // Consume exactly one RNG draw per opportunity so the stream stays
    // aligned whether or not the every-Nth rule already fired.
    fail = NextRand() % 1000 < permille;
  }
  if (fail) {
    RecordInjection(h, opp);
  }
  return fail;
}

bool FaultInjector::ShouldFailFrameAlloc() {
  return EveryNth(FaultHook::kFrameAlloc, plan_.fail_frame_every,
                  plan_.fail_frame_permille);
}

bool FaultInjector::FailHandleAlloc() {
  return EveryNth(FaultHook::kHandleAlloc, plan_.fail_handle_every, 0);
}

bool FaultInjector::FailConnect() {
  return EveryNth(FaultHook::kPortConnect, plan_.fail_connect_every, 0);
}

uint64_t FaultInjector::ScheduleDigest() const {
  wire::Fnv1a h;
  for (const uint64_t o : opportunities_) {
    h.U64(o);
  }
  h.U64(injected_);
  for (const Injection& inj : schedule_) {
    h.U64(static_cast<uint64_t>(inj.hook));
    h.U64(inj.opportunity);
  }
  return h.value();
}

std::string FaultInjector::ScheduleSummary() const {
  std::string out;
  char line[64];
  for (const Injection& inj : schedule_) {
    std::snprintf(line, sizeof(line), "%s@%llu\n", FaultHookName(inj.hook),
                  static_cast<unsigned long long>(inj.opportunity));
    out += line;
  }
  return out;
}

bool ParseFaultPlan(const std::string& spec, FaultPlan* out, std::string* err) {
  FaultPlan plan;
  plan.enabled = true;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    uint64_t val = 0;
    bool has_val = eq != std::string::npos;
    if (has_val) {
      const std::string vs = item.substr(eq + 1);
      char* end = nullptr;
      val = std::strtoull(vs.c_str(), &end, 0);
      if (vs.empty() || end == nullptr || *end != '\0') {
        if (err != nullptr) {
          *err = "bad value in fault-plan item: " + item;
        }
        return false;
      }
    }
    bool bad = false;
    if (key == "seed") {
      plan.seed = val;
      bad = !has_val;
    } else if (key == "step") {
      plan.single_step = true;
      bad = has_val;
    } else if (key == "extract") {
      plan.extract_at = val;
      bad = !has_val;
    } else if (key == "crash") {
      plan.crash_at = val;
      bad = !has_val;
    } else if (key == "frame-every") {
      plan.fail_frame_every = static_cast<uint32_t>(val);
      bad = !has_val;
    } else if (key == "frame-permille") {
      plan.fail_frame_permille = static_cast<uint32_t>(val);
      bad = !has_val;
    } else if (key == "handle-every") {
      plan.fail_handle_every = static_cast<uint32_t>(val);
      bad = !has_val;
    } else if (key == "connect-every") {
      plan.fail_connect_every = static_cast<uint32_t>(val);
      bad = !has_val;
    } else {
      if (err != nullptr) {
        *err = "unknown fault-plan key: " + key;
      }
      return false;
    }
    if (bad) {
      if (err != nullptr) {
        *err = "fault-plan key " + key +
               (has_val ? " takes no value" : " needs a value");
      }
      return false;
    }
  }
  *out = plan;
  return true;
}

}  // namespace fluke
