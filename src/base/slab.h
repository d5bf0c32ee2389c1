// Chunked object storage for one kernel's objects (Thread, Port, Reference).
//
// Same shape as the frame slab in src/mem/phys.h: carve fixed-size chunks
// and construct each object in the next free slot. Creating the 100k-th
// thread of a boot storm is then a pointer bump instead of a malloc round
// trip, and bytes-per-object is a fixed, measurable quantity (sizeof the
// slot) rather than allocator-dependent.
//
// Kernel objects are never freed mid-run (a destroyed object stays as a
// zombie until its kernel goes away), so there is no free list: the slab
// destroys every object it constructed when it is itself destroyed. Each
// Kernel owns its slabs; the simulator is single-threaded by construction,
// so there is no locking.

#ifndef SRC_BASE_SLAB_H_
#define SRC_BASE_SLAB_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace fluke {

template <typename T, size_t kChunkObjects = 256>
class SlabArena {
 public:
  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  ~SlabArena() {
    for (size_t i = 0; i < size_; ++i) {
      std::launder(reinterpret_cast<T*>(chunks_[i / kChunkObjects][i % kChunkObjects].bytes))
          ->~T();
    }
  }

  template <typename... Args>
  T* New(Args&&... args) {
    if (size_ % kChunkObjects == 0) {
      chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[kChunkObjects]));
    }
    T* obj = ::new (chunks_.back()[size_ % kChunkObjects].bytes) T(std::forward<Args>(args)...);
    ++size_;
    return obj;
  }

 private:
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  size_t size_ = 0;
};

}  // namespace fluke

#endif  // SRC_BASE_SLAB_H_
