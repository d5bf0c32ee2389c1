// W^X executable arena for the template JIT.
//
// One arena per compiled program, sized exactly at emission time. The
// lifecycle enforces W^X: pages are mapped writable (never executable)
// while the emitter copies code in, then Seal() flips them to
// read+execute (never writable) before the first entry stub runs. The
// arena is unmapped when its JitProgram is destroyed, which happens when
// the owning Program is torn down -- compiled code cannot outlive the
// bytecode it was compiled from.
//
// Hosts can refuse either step (hardened mmap policies, SELinux
// execmem denials); both failure paths release the mapping and report
// false so the caller can fall back to the switch interpreter.

#ifndef SRC_UVM_JITCACHE_H_
#define SRC_UVM_JITCACHE_H_

#include <cstddef>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define FLUKE_JIT_HAVE_MMAP 1
#else
#define FLUKE_JIT_HAVE_MMAP 0
#endif

namespace fluke {
namespace jit_internal {

class JitArena {
 public:
  JitArena() = default;
  ~JitArena() { Release(); }

  JitArena(const JitArena&) = delete;
  JitArena& operator=(const JitArena&) = delete;

  // Maps `size` bytes read+write. Returns false (and stays empty) if the
  // host refuses; callers must not retry on the same arena.
  bool Allocate(size_t size) {
#if FLUKE_JIT_HAVE_MMAP
    if (base_ != nullptr || size == 0) {
      return false;
    }
    const size_t page = HostPageSize();
    size_ = (size + page - 1) & ~(page - 1);
    void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      size_ = 0;
      return false;
    }
    base_ = static_cast<uint8_t*>(p);
    return true;
#else
    (void)size;
    return false;
#endif
  }

  // Flips the mapping to read+execute. After this the arena is immutable
  // until Release(). Returns false (releasing the mapping) on refusal.
  bool Seal() {
#if FLUKE_JIT_HAVE_MMAP
    if (base_ == nullptr || sealed_) {
      return false;
    }
    if (::mprotect(base_, size_, PROT_READ | PROT_EXEC) != 0) {
      Release();
      return false;
    }
    sealed_ = true;
    return true;
#else
    return false;
#endif
  }

  void Release() {
#if FLUKE_JIT_HAVE_MMAP
    if (base_ != nullptr) {
      ::munmap(base_, size_);
    }
#endif
    base_ = nullptr;
    size_ = 0;
    sealed_ = false;
  }

  uint8_t* base() const { return base_; }
  size_t size() const { return size_; }
  bool sealed() const { return sealed_; }

  static size_t HostPageSize() {
#if FLUKE_JIT_HAVE_MMAP
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<size_t>(p) : 4096;
#else
    return 4096;
#endif
  }

  // One-shot probe: can this process map a page and make it executable?
  // Used by JitAvailable() so a denial becomes a logged fallback to the
  // switch engine instead of a per-program failure (or a crash).
  static bool HostSupportsExecPages() {
    JitArena probe;
    if (!probe.Allocate(1)) {
      return false;
    }
    probe.base()[0] = 0xC3;  // ret
    return probe.Seal();
  }

 private:
  uint8_t* base_ = nullptr;
  size_t size_ = 0;
  bool sealed_ = false;
};

}  // namespace jit_internal
}  // namespace fluke

#endif  // SRC_UVM_JITCACHE_H_
