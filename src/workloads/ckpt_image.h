// Checkpoint image serialization.
//
// Turns a MachineImage -- a whole machine, or one task captured by
// CaptureSpace -- into a self-describing byte stream and back, so a
// migration manager can ship a frozen task over a wire, or a checkpointer
// park a machine on disk. Pages are stored sparsely (only mapped pages
// travel).
//
// The stream carries per-64-page-chunk CRC32s and a CRC32 trailer over the
// whole payload, and the loader cross-validates the structures the restorer
// relies on (slot 1 is the space-self slot, thread and port indices are in
// range, every thread has exactly one self slot, addresses are strictly
// increasing). Any single corrupted byte anywhere in the stream is
// rejected; never crashes on hostile input.

#ifndef SRC_WORKLOADS_CKPT_IMAGE_H_
#define SRC_WORKLOADS_CKPT_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workloads/checkpoint.h"

namespace fluke {

inline constexpr uint32_t kCkptMagic = 0x464C4B31;  // "FLK1"
// The stream version: machine images (every captured space + cross-space
// IPC objects), delta chaining (generation / base_generation / parent
// digest), resident page directories, and per-chunk page CRCs under the
// whole-stream trailer. Any other version is rejected.
inline constexpr uint32_t kCkptVersion3 = 3;

// Serializes `img` to bytes.
std::vector<uint8_t> SerializeMachine(const MachineImage& img);

// Parses bytes back into an image. Returns false (with *error set) on a
// malformed, truncated or version-mismatched stream; never crashes on
// hostile input.
bool DeserializeImage(const std::vector<uint8_t>& bytes, MachineImage* out,
                      std::string* error);

// XXH64 (seed 0) over the serialized stream: the identity a delta image's
// parent_digest names, and what the restart log records per generation.
// Stores written when this was FNV-1a fail recovery with "image digest
// mismatch" (DESIGN.md, "Wire toolkit").
uint64_t ImageDigest(const std::vector<uint8_t>& bytes);

}  // namespace fluke

#endif  // SRC_WORKLOADS_CKPT_IMAGE_H_
