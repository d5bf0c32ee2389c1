#include "src/kern/profile.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/api/abi.h"
#include "src/base/wire.h"

namespace fluke {
namespace {

std::string SysKey(uint32_t sys) { return std::string("sys:") + SysName(sys); }

// A stack entry on a thread's in-kernel class stack.
struct StackEntry {
  TraceKind kind;  // kSyscallEnter or kFaultRemedy
  std::string key;
};

struct OpenInterval {
  Time t0;
  std::string key;
};

}  // namespace

ProfileReport BuildProfile(const std::vector<TraceEvent>& events, Time end_ns, uint64_t dropped) {
  ProfileReport rep;
  rep.total_ns = end_ns;
  rep.events = events.size();
  rep.dropped = dropped;

  std::unordered_map<std::string, size_t> index;
  auto row = [&](const std::string& key) -> ProfileRow& {
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, rep.rows.size()).first;
      rep.rows.push_back(ProfileRow{key});
    }
    return rep.rows[it->second];
  };

  std::unordered_map<uint64_t, std::vector<StackEntry>> stacks;  // per-tid
  std::unordered_map<uint64_t, OpenInterval> open_blocks;        // span id -> start
  std::unordered_map<uint64_t, Time> open_remedies;              // span id -> start
  uint64_t cur_tid = 0;  // 0 until the first context switch ("boot")
  int idle_depth = 0;

  // Attribution class for the interval starting at the current event.
  auto current_class = [&]() -> std::string {
    if (idle_depth > 0) {
      return "idle";
    }
    if (cur_tid == 0) {
      return "boot";
    }
    const auto it = stacks.find(cur_tid);
    if (it != stacks.end() && !it->second.empty()) {
      return it->second.back().key;
    }
    return "user";
  };

  // Pops the topmost entry of `kind` from tid's stack (and anything pushed
  // above it whose end event was lost to the ring).
  auto pop_kind = [&](uint64_t tid, TraceKind kind) {
    auto it = stacks.find(tid);
    if (it == stacks.end()) {
      return;
    }
    auto& st = it->second;
    for (size_t i = st.size(); i > 0; --i) {
      if (st[i - 1].kind == kind) {
        st.resize(i - 1);
        return;
      }
    }
  };

  // Applies event state, then attributes [e.when, next_when) to the class
  // active after the event.
  auto apply = [&](const TraceEvent& e) {
    switch (e.kind) {
      case TraceKind::kContextSwitch:
        cur_tid = e.thread_id;
        break;
      case TraceKind::kIdle:
        if (e.phase == TracePhase::kBegin) {
          ++idle_depth;
        } else if (e.phase == TracePhase::kEnd && idle_depth > 0) {
          --idle_depth;
        }
        break;
      case TraceKind::kSyscallEnter:
        if (e.phase == TracePhase::kBegin) {
          ProfileRow& r = row(SysKey(e.a));
          ++r.count;
          if (e.b == 1) {
            ++r.restarts;
          }
          stacks[e.thread_id].push_back(StackEntry{TraceKind::kSyscallEnter, SysKey(e.a)});
        }
        break;
      case TraceKind::kSyscallExit:
        pop_kind(e.thread_id, TraceKind::kSyscallEnter);
        break;
      case TraceKind::kSyscallRestart:
        ++row(SysKey(e.a)).restarts;
        break;
      case TraceKind::kBlock:
        if (e.phase == TracePhase::kBegin && e.span_id != 0) {
          open_blocks[e.span_id] = OpenInterval{e.when, SysKey(e.a)};
        }
        break;
      case TraceKind::kWake:
        if (e.phase == TracePhase::kEnd) {
          const auto it = open_blocks.find(e.span_id);
          if (it != open_blocks.end()) {
            row(it->second.key).blocked_ns += e.when - it->second.t0;
            open_blocks.erase(it);
          }
        }
        break;
      case TraceKind::kFaultRemedy:
        if (e.phase == TracePhase::kBegin) {
          open_remedies[e.span_id] = e.when;
          stacks[e.thread_id].push_back(StackEntry{TraceKind::kFaultRemedy, "fault:remedy"});
        } else if (e.phase == TracePhase::kEnd) {
          pop_kind(e.thread_id, TraceKind::kFaultRemedy);
          const auto it = open_remedies.find(e.span_id);
          if (it != open_remedies.end()) {
            // End-code 0 is a soft resolve; 2 is a keeper reply (hard);
            // anything else is a cancelled/failed remedy.
            const char* cls = e.b == 0 ? "fault:soft" : e.b == 2 ? "fault:hard" : "fault:other";
            ProfileRow& r = row(cls);
            r.remedy_ns += e.when - it->second;
            ++r.count;
            open_remedies.erase(it);
          }
        }
        break;
      case TraceKind::kThreadExit:
        stacks.erase(e.thread_id);
        break;
      default:
        break;
    }
  };

  if (!events.empty() && events.front().when > 0) {
    row("boot").cpu_ns += events.front().when;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    apply(events[i]);
    const Time t0 = events[i].when;
    const Time t1 = i + 1 < events.size() ? events[i + 1].when : end_ns;
    if (t1 > t0) {
      row(current_class()).cpu_ns += t1 - t0;
    }
  }
  if (events.empty() && end_ns > 0) {
    row("boot").cpu_ns += end_ns;
  }

  for (const ProfileRow& r : rep.rows) {
    rep.accounted_ns += r.cpu_ns;
  }
  std::sort(rep.rows.begin(), rep.rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              return a.cpu_ns != b.cpu_ns ? a.cpu_ns > b.cpu_ns : a.key < b.key;
            });
  return rep;
}

std::string RenderProfile(const ProfileReport& p) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %12s %6s %12s %12s %8s %8s\n", "class", "cpu(us)", "%",
                "blocked(us)", "remedy(us)", "count", "restarts");
  out += line;
  const double total = p.total_ns > 0 ? static_cast<double>(p.total_ns) : 1.0;
  for (const ProfileRow& r : p.rows) {
    std::snprintf(line, sizeof(line), "%-28s %12.3f %5.1f%% %12.3f %12.3f %8llu %8llu\n",
                  r.key.c_str(), static_cast<double>(r.cpu_ns) / kNsPerUs,
                  100.0 * static_cast<double>(r.cpu_ns) / total,
                  static_cast<double>(r.blocked_ns) / kNsPerUs,
                  static_cast<double>(r.remedy_ns) / kNsPerUs,
                  static_cast<unsigned long long>(r.count),
                  static_cast<unsigned long long>(r.restarts));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-28s %12.3f 100.0%% (%llu events%s)\n", "total",
                static_cast<double>(p.accounted_ns) / kNsPerUs,
                static_cast<unsigned long long>(p.events),
                p.dropped > 0 ? ", ring truncated" : "");
  out += line;
  return out;
}

uint64_t TraceDigest(const std::vector<TraceEvent>& events) {
  wire::Fnv1a h;
  for (const TraceEvent& e : events) {
    h.U64(e.when);
    h.U64(e.span_id);
    h.U64(e.thread_id);
    h.U64(static_cast<uint64_t>(e.kind) | (static_cast<uint64_t>(e.phase) << 8));
    h.U64((static_cast<uint64_t>(e.a) << 32) | e.b);
  }
  h.U64(events.size());
  return h.value();
}

}  // namespace fluke
