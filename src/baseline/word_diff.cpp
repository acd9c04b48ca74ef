#include "baseline/word_diff.hpp"

#include <algorithm>

#include "bitmap/convert.hpp"
#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace sysrle {

namespace {

/// XORs a row's boundary toggles into the buffer: one bit at each run's
/// start and one just past its end.  Branchless per run; consecutive
/// toggles that land in the same word are batched in a register so
/// fragmented rows (many runs per word) do not serialize on
/// store-to-load forwarding.
void toggle_row(const RleRow& row, pos_t base, std::uint64_t* words) {
  std::size_t cur = 0;        // word index the accumulator belongs to
  std::uint64_t acc = 0;      // pending toggles for words[cur]
  for (const Run& r : row) {
    // Unsigned bit arithmetic: positions are non-negative by contract, and
    // the cast lets >> 6 / & 63 compile to plain shifts (signed division
    // needs a rounding correction the optimizer cannot elide).
    const auto s = static_cast<std::uint64_t>(r.start - base);
    const auto e1 = static_cast<std::uint64_t>(r.end() + 1 - base);
    const std::size_t ws = s >> 6;
    const std::size_t we = e1 >> 6;
    if (ws != cur) {
      words[cur] ^= acc;
      acc = 0;
      cur = ws;
    }
    acc ^= std::uint64_t{1} << (s & 63);
    if (we != cur) {
      words[cur] ^= acc;
      acc = 0;
      cur = we;
    }
    acc ^= std::uint64_t{1} << (e1 & 63);
  }
  words[cur] ^= acc;
}

/// The oracle plus canonicalize: the engine's output contract is canonical
/// at every level, and the bit domain the word path diffs in has no notion
/// of adjacent runs, so the scalar level must compress to match.
SequentialDiffResult scalar_canonical_xor(const RleRow& a, const RleRow& b) {
  SequentialDiffResult r = sequential_xor(a, b);
  r.output.canonicalize();
  return r;
}

}  // namespace

namespace detail {

void prefix_fill_swar(std::uint64_t* words, std::size_t n) {
  std::uint64_t carry = 0;  // 0 or ~0: fill state entering the word
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = words[i];
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x ^= carry;
    carry = std::uint64_t{0} - (x >> 63);
    words[i] = x;
  }
}

}  // namespace detail

SequentialDiffResult word_parallel_xor(const RleRow& a, const RleRow& b,
                                       WordDiffScratch& scratch,
                                       SimdLevel level) {
  SYSRLE_REQUIRE(level != SimdLevel::kScalar,
                 "word_parallel_xor: kScalar is not a word level");
  SYSRLE_REQUIRE(!a.empty() && !b.empty(),
                 "word_parallel_xor: rows must be non-empty");

  // Cover only the joint word-aligned extent, so a small diff near the end
  // of a wide row does not pay for the empty prefix.  One extra word holds
  // the end-toggle of a run finishing exactly at the extent's last bit.
  const pos_t lo = std::min(a.first_pixel(), b.first_pixel());
  const pos_t hi = std::max(a.last_pixel(), b.last_pixel());
  const pos_t base = (lo / 64) * 64;
  const std::size_t word_count =
      static_cast<std::size_t>(hi / 64 - lo / 64) + 1;

  scratch.words.assign(word_count + 1, 0);
  toggle_row(a, base, scratch.words.data());
  toggle_row(b, base, scratch.words.data());

  switch (level) {
#if defined(SYSRLE_AVX2_COMPILED)
    case SimdLevel::kAvx2:
      detail::prefix_fill_avx2(scratch.words.data(), word_count + 1);
      break;
#endif
    default:
      // kSwar64 and the NEON stub share the plain 64-bit loop.
      detail::prefix_fill_swar(scratch.words.data(), word_count + 1);
      break;
  }

  SequentialDiffResult result;
  result.iterations = word_count;
  append_word_runs(scratch.words.data(), word_count + 1, base, result.output);
  return result;
}

SequentialDiffResult sequential_engine_xor(const RleRow& a, const RleRow& b) {
  const SimdLevel level = active_simd_level();

  // An empty side makes the diff a copy of the other row — the scalar merge
  // already does that in k iterations; packing would only add work.
  if (level == SimdLevel::kScalar || a.empty() || b.empty()) {
    if (telemetry_enabled()) global_metrics().add("engine.dispatch.rows_scalar");
    return scalar_canonical_xor(a, b);
  }

  // Run-density guard: the word path pays O(extent/64) words plus two
  // toggles per run, and only wins where run boundaries are dense enough
  // that the merge's branchy Θ(k1+k2) walk mispredicts its way to a loss.
  // Sparse or smooth rows — few runs per extent word — route to the merge,
  // which also keeps ultra-sparse ultra-wide rows within the scalar bound.
  const pos_t lo = std::min(a.first_pixel(), b.first_pixel());
  const pos_t hi = std::max(a.last_pixel(), b.last_pixel());
  const std::uint64_t words = static_cast<std::uint64_t>(hi / 64 - lo / 64) + 1;
  const std::uint64_t k = a.run_count() + b.run_count();
  if (k < kMinRunsPerWord * words) {
    if (telemetry_enabled()) {
      MetricsRegistry& m = global_metrics();
      m.add("engine.dispatch.rows_scalar");
      m.add("engine.dispatch.sparse_fallbacks");
    }
    return scalar_canonical_xor(a, b);
  }

  if (telemetry_enabled()) global_metrics().add("engine.dispatch.rows_word");
  thread_local WordDiffScratch scratch;
  return word_parallel_xor(a, b, scratch, level);
}

SequentialDiffResult sequential_row_xor(const RleRow& a, const RleRow& b,
                                        bool canonicalize_output) {
  return canonicalize_output ? sequential_engine_xor(a, b)
                             : sequential_xor(a, b);
}

}  // namespace sysrle
