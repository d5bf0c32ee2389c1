#include "src/workloads/restart_log.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/base/wire.h"
#include "src/workloads/ckpt_image.h"

namespace fluke {

bool FileCkptStore::Put(const std::string& name, const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::ofstream f(std::filesystem::path(dir_) / name, std::ios::binary | std::ios::trunc);
  if (!f) {
    return false;
  }
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return f.good();
}

bool FileCkptStore::Get(const std::string& name, std::vector<uint8_t>* out) const {
  std::ifstream f(std::filesystem::path(dir_) / name, std::ios::binary);
  if (!f) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  return true;
}

bool FileCkptStore::Append(const std::string& name, const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::ofstream f(std::filesystem::path(dir_) / name, std::ios::binary | std::ios::app);
  if (!f) {
    return false;
  }
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return f.good();
}

std::string CkptImageName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%llu.img", static_cast<unsigned long long>(generation));
  return buf;
}

bool CommitGeneration(CkptStore& store, uint64_t gen, const std::vector<uint8_t>& bytes) {
  // Write-ahead order: the image must be durable before the log names it.
  if (!store.Put(CkptImageName(gen), bytes)) {
    return false;
  }
  const uint64_t digest = ImageDigest(bytes);
  const std::vector<uint8_t> rec = wire::Encode([&](auto& w) {
    w.U64(gen);
    w.U64(digest);
    w.U64(bytes.size());
    w.Crc32Since(0);
  });
  return store.Append(kRestartLogName, rec);
}

std::vector<RestartRecord> ReadRestartLog(const CkptStore& store) {
  std::vector<RestartRecord> out;
  std::vector<uint8_t> raw;
  if (!store.Get(kRestartLogName, &raw)) {
    return out;
  }
  for (size_t off = 0; off + kRestartRecordBytes <= raw.size(); off += kRestartRecordBytes) {
    const uint8_t* p = raw.data() + off;
    if (wire::Crc32(p, 24) != wire::LoadLe32(p + 24)) {
      break;  // corrupt record: trust nothing at or after it
    }
    out.push_back({wire::LoadLe64(p), wire::LoadLe64(p + 8), wire::LoadLe64(p + 16)});
  }
  return out;  // a torn tail (partial record) is simply never reached
}

bool LoadGeneration(const CkptStore& store, const std::vector<RestartRecord>& log,
                    size_t rec_index, MachineImage* out, std::string* error) {
  if (rec_index >= log.size()) {
    *error = "no such log record";
    return false;
  }
  // Newest record for each generation (a re-run could re-log one).
  auto find_record = [&log](uint64_t gen, RestartRecord* rec) {
    bool found = false;
    for (const RestartRecord& r : log) {
      if (r.generation == gen) {
        *rec = r;
        found = true;
      }
    }
    return found;
  };
  auto fetch = [&](const RestartRecord& rec, std::vector<uint8_t>* bytes,
                   MachineImage* img) -> bool {
    if (!store.Get(CkptImageName(rec.generation), bytes)) {
      *error = "truncated delta chain: image for generation " +
               std::to_string(rec.generation) + " is missing";
      return false;
    }
    if (bytes->size() != rec.image_size || ImageDigest(*bytes) != rec.digest) {
      *error = "image digest mismatch for generation " + std::to_string(rec.generation);
      return false;
    }
    if (!DeserializeImage(*bytes, img, error)) {
      return false;
    }
    if (img->generation != rec.generation) {
      *error = "image generation disagrees with the log";
      return false;
    }
    return true;
  };

  // Walk parent links newest-to-oldest, then merge oldest-first. fetch() has
  // checked every image's bytes against its log record's digest, so a
  // delta's parent link is checked against that record instead of hashing
  // the parent again.
  std::vector<MachineImage> images;
  std::vector<uint8_t> bytes;
  MachineImage img;
  if (!fetch(log[rec_index], &bytes, &img)) {
    return false;
  }
  while (true) {
    const bool is_delta = img.base_generation != 0;
    const uint32_t parent_gen = img.base_generation;
    const uint64_t parent_digest = img.parent_digest;
    images.push_back(std::move(img));
    if (!is_delta) {
      break;
    }
    if (images.size() > log.size()) {
      *error = "delta chain longer than the log (cycle?)";
      return false;
    }
    RestartRecord prec;
    if (!find_record(parent_gen, &prec)) {
      *error = "generation gap: delta generation " +
               std::to_string(images.back().generation) + " chains to unlogged generation " +
               std::to_string(parent_gen);
      return false;
    }
    if (!fetch(prec, &bytes, &img)) {
      return false;
    }
    if (parent_digest != prec.digest) {
      *error = "parent digest mismatch at generation " + std::to_string(img.generation);
      return false;
    }
  }
  std::reverse(images.begin(), images.end());
  return MergeImageChain(std::move(images), out, error);
}

bool RecoverLatest(const CkptStore& store, MachineImage* out, uint64_t* generation,
                   std::string* error) {
  const std::vector<RestartRecord> log = ReadRestartLog(store);
  if (log.empty()) {
    *error = "restart log is empty or unreadable";
    return false;
  }
  std::string newest_error;
  for (size_t i = log.size(); i-- > 0;) {
    std::string e;
    if (LoadGeneration(store, log, i, out, &e)) {
      if (generation != nullptr) {
        *generation = log[i].generation;
      }
      return true;
    }
    if (newest_error.empty()) {
      newest_error = std::move(e);
    }
  }
  *error = newest_error;
  return false;
}

}  // namespace fluke
