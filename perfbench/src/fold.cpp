#include "fold.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace maabe::perfbench {

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return nearest_rank(std::move(samples), 50); }

Tail tail(std::vector<double> samples) {
  constexpr size_t kBeyond = 10;
  Tail t;
  const size_t n = samples.size();
  if (n < kTailMinSamples) return t;
  // Integer ranks: the nearest rank of p95 is ceil(0.95 n).
  const size_t rank = std::min(n - kBeyond, (95 * n + 99) / 100);
  std::sort(samples.begin(), samples.end());
  t.present = true;
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

namespace {

/// Length of the union of [lo, hi) intervals after clipping each to
/// [clip_lo, clip_hi).
uint64_t covered_ns(std::vector<std::pair<uint64_t, uint64_t>>& iv, uint64_t clip_lo,
                    uint64_t clip_hi) {
  for (auto& [lo, hi] : iv) {
    lo = std::clamp(lo, clip_lo, clip_hi);
    hi = std::clamp(hi, clip_lo, clip_hi);
  }
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

Fold fold_spans(const std::vector<SpanRec>& spans, std::string_view root_prefix) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].span_id, i);

  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  std::vector<bool> orphan(spans.size(), false);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.parent_id == 0) {
      orphan[i] = s.name.compare(0, root_prefix.size(), root_prefix) != 0;
      continue;
    }
    const auto parent = index.find(s.parent_id);
    if (parent == index.end()) {
      orphan[i] = true;
      continue;
    }
    children[parent->second].emplace_back(s.start_ns, s.end_ns);
  }

  Fold fold;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const uint64_t self = dur - covered_ns(children[i], s.start_ns, s.start_ns + dur);
    if (orphan[i]) ++fold.orphan_spans;
    FoldRow& row = fold.rows[orphan[i] ? "(orphan)/" + s.name : s.name];
    ++row.count;
    row.total_ms += static_cast<double>(dur) / 1e6;
    row.self_ms += static_cast<double>(self) / 1e6;
  }
  return fold;
}

}  // namespace maabe::perfbench
