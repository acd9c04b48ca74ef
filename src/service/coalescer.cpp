#include "service/coalescer.hpp"

#include "common/assert.hpp"

namespace sysrle {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t image_fingerprint(const RleImage& image) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(image.width()));
  h = fnv1a(h, static_cast<std::uint64_t>(image.height()));
  for (const RleRow& row : image.rows()) {
    h = fnv1a(h, static_cast<std::uint64_t>(row.runs().size()));
    for (const Run& r : row.runs()) {
      h = fnv1a(h, static_cast<std::uint64_t>(r.start));
      h = fnv1a(h, static_cast<std::uint64_t>(r.length));
    }
  }
  return h;
}

Coalescer::AdmitResult Coalescer::admit(const ResultKey& key,
                                        const RleImage& a, const RleImage& b,
                                        std::uint64_t call_id) {
  auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    Entry e;
    e.owner = call_id;
    e.a = a;
    e.b = b;
    inflight_.emplace(key, std::move(e));
    return {.primary = true, .owner = call_id, .collision = false};
  }
  if (it->second.a != a || it->second.b != b) {
    // Same 128-bit fingerprint, different images: run it uncoalesced rather
    // than ever serving another pair's diff.
    ++collisions_;
    return {.primary = true, .owner = call_id, .collision = true};
  }
  return {.primary = false, .owner = it->second.owner, .collision = false};
}

void Coalescer::reassign(const ResultKey& key, std::uint64_t call_id) {
  auto it = inflight_.find(key);
  SYSRLE_REQUIRE(it != inflight_.end(),
                 "Coalescer::reassign: key is not in flight");
  it->second.owner = call_id;
}

void Coalescer::finish(const ResultKey& key) { inflight_.erase(key); }

}  // namespace sysrle
