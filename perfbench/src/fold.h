// Pure helpers of the benchmark: nearest-rank percentiles, the tail
// rule and the span fold. They depend on nothing in the program, so
// tests/fold_test.cpp checks them against hand-built inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace maabe::perfbench {

/// Nearest-rank percentile of `samples` (q in (0, 100]): the value at
/// 1-based rank ceil(q/100 * n) of the sorted samples. 0 when empty.
double nearest_rank(std::vector<double> samples, double q);

/// Nearest-rank median (rank ceil(n/2)).
double median(std::vector<double> samples);

/// Samples a tail needs (see tail()).
constexpr size_t kTailMinSamples = 20;

/// The highest nearest-rank percentile, up to p95, that has at least 10
/// samples strictly above its rank: percentile min(95, 100 * (n - 10) / n),
/// which is continuous in n. Absent below kTailMinSamples samples. The
/// cap keeps classes with thousands of samples off the last few per
/// mille, where a shared host's scheduling hiccups, not the program,
/// decide the value.
struct Tail {
  bool present = false;
  double value = 0;
  double percentile = 0;
};
Tail tail(std::vector<double> samples);

/// One finished span, as the fold needs it.
struct SpanRec {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for a trace root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct FoldRow {
  uint64_t count = 0;
  double total_ms = 0;  ///< summed durations
  double self_ms = 0;   ///< summed self times
};

/// Span set folded by name.
struct Fold {
  /// Every span under its own name, except orphans, which are kept
  /// under "(orphan)/<name>" so their time is visible but explains no
  /// operation.
  std::map<std::string, FoldRow> rows;
  /// Spans whose parent is missing from the set, plus trace roots
  /// whose name lacks the expected root prefix (work that lost its
  /// parent when it crossed a thread).
  uint64_t orphan_spans = 0;
};

/// Self time of a span = its duration minus the part of its interval
/// that its children cover (children's intervals are clipped to the
/// parent's and merged, so children running in parallel on several
/// threads are not counted twice).
Fold fold_spans(const std::vector<SpanRec>& spans, std::string_view root_prefix);

}  // namespace maabe::perfbench
