// Checkpoint image serialization.
//
// Turns a CheckpointImage into a self-describing byte stream and back, so a
// migration manager can ship a frozen task over a wire or park it on disk.
// The format is versioned and validated on load; pages are stored sparsely
// (only mapped pages travel).
//
// Version 2 appends a CRC32 trailer over the whole payload and the loader
// cross-validates the structures the restorer relies on (slot 1 is the
// space-self slot, mutex owners and thread-self indices are in range and
// unique, page addresses are strictly increasing). Any single corrupted
// byte anywhere in the stream is rejected; never crashes on hostile input.

#ifndef SRC_WORKLOADS_CKPT_IMAGE_H_
#define SRC_WORKLOADS_CKPT_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workloads/checkpoint.h"

namespace fluke {

inline constexpr uint32_t kCkptMagic = 0x464C4B31;  // "FLK1"
inline constexpr uint32_t kCkptVersion = 2;  // v2: CRC32 trailer + semantic checks
// v3: machine-wide images (every space + cross-space IPC objects), delta
// chaining (generation / base_generation / parent digest), resident page
// directories, and per-chunk page CRCs on top of the v2 stream trailer.
inline constexpr uint32_t kCkptVersion3 = 3;

// Serializes `img` to bytes.
std::vector<uint8_t> SerializeCheckpoint(const CheckpointImage& img);

// Parses bytes back into an image. Returns false (with *error set) on a
// malformed, truncated or version-mismatched stream; never crashes on
// hostile input.
bool DeserializeCheckpoint(const std::vector<uint8_t>& bytes, CheckpointImage* out,
                           std::string* error);

// Serializes a machine-wide image (v3 stream).
std::vector<uint8_t> SerializeMachine(const MachineImage& img);

// Parses a v3 machine image -- or, for backward compatibility, a v2
// single-space image, which is wrapped as a one-space full MachineImage --
// with the same hostile-input guarantees as DeserializeCheckpoint.
bool DeserializeImage(const std::vector<uint8_t>& bytes, MachineImage* out,
                      std::string* error);

// XXH64 (seed 0) over the serialized stream: the identity a delta image's
// parent_digest names, and what the restart log records per generation.
// Stores written when this was FNV-1a fail recovery with "image digest
// mismatch" (DESIGN.md, "Wire toolkit").
uint64_t ImageDigest(const std::vector<uint8_t>& bytes);

}  // namespace fluke

#endif  // SRC_WORKLOADS_CKPT_IMAGE_H_
