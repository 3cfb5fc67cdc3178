// The benchmark's workload inputs and the bookkeeping both of its programs
// share: the seeded streams, the session configuration each workload
// sends in its Hello, latency samples, spans, and the metric lines
// run.py reads.

#ifndef VARBENCH_WORKLOADS_H_
#define VARBENCH_WORKLOADS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/tracker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "stream/source.h"
#include "stream/update.h"
#include "wire.h"

namespace varbench {

using varstream::CountUpdate;

inline constexpr uint32_t kSites = 64;
inline constexpr double kEpsilon = 0.1;
inline constexpr const char* kTracker = "deterministic";

// bulk-walk / tree-walk: 8 frames of 4096 updates in flight, a Query
// every 2^20 updates, and the exact counts taken at the Query at 2^22.
inline constexpr size_t kWalkFrame = 4096;
inline constexpr uint32_t kWalkWindow = 8;
inline constexpr uint64_t kWalkQueryEvery = 1u << 20;
inline constexpr uint64_t kCountPrefix = 1u << 22;
// Random-walk steps per restart segment (see WalkStream).
inline constexpr uint64_t kWalkSegment = 1u << 17;

// sensor-trickle: three writers of 32-update frames on a fixed schedule
// plus one reader. kTrickleFramePeriodNs is per writer; the three
// writers are staggered by a third of it. The offered rate (3 x 32
// updates every 500 us = 192K updates/s) is a sixth of the highest
// open-loop rate this configuration held with a steady backlog (1.2M
// updates/s at an 80 us period on the 4-core virtual host the benchmark
// was defined on; at 70 us the backlog grew and frames were refused).
// It is that low because the host stalls a thread for up to ~10 ms at a
// time: every frame due during a stall then arrives in one burst, and a
// burst of more than 64 frames on one session is refused by the
// server's pending-batch cap (service/server.h). At 500 us that takes a
// 32 ms stall; at 250 us it happened in some runs.
inline constexpr size_t kTrickleFrame = 32;
inline constexpr uint32_t kTrickleWriters = 3;
inline constexpr int64_t kTrickleFramePeriodNs = 500000;
inline constexpr int64_t kTrickleReadPeriodNs = 1000000;

/// The Hello every workload session sends: the deterministic tracker
/// over kSites sites with the seed derivation varstream_run uses.
inline varstream::HelloFrame MakeHello(const std::string& session,
                                       uint32_t shards, uint64_t seed) {
  varstream::HelloFrame hello;
  hello.session = session;
  hello.tracker = kTracker;
  hello.shards = shards;
  hello.options.num_sites = kSites;
  hello.options.epsilon = kEpsilon;
  hello.options.seed = seed ^ 0x7AC8E5;
  hello.options.initial_value = 0;
  return hello;
}

/// The history read the sensor-trickle reader and the ledger issue: one
/// session's whole retained history reduced to 32 mean buckets.
inline varstream::QueryRangeFrame MakeHistoryQuery(const std::string& session) {
  varstream::QueryRangeFrame query;
  query.session = session;
  query.spec.agg = varstream::Aggregation::kMean;
  query.spec.buckets = 32;
  return query;
}

/// Parity of a served Snapshot with an in-process one: estimate bits,
/// time, messages and bits (the wire-only fields are reporting).
inline bool SameSnapshot(const varstream::SnapshotFrame& got,
                         const varstream::TrackerSnapshot& want) {
  return std::bit_cast<uint64_t>(got.estimate) ==
             std::bit_cast<uint64_t>(want.estimate) &&
         got.time == want.time && got.messages == want.messages &&
         got.bits == want.bits;
}

/// Decodes a MetricsDumpResult payload into one label-free snapshot:
/// the whole-tree "merged" registry when `merged` and the node is a
/// root, else the node's own registry.
inline bool DecodeMetricsDump(std::span<const uint8_t> payload, bool merged,
                              varstream::MetricsSnapshot* out,
                              std::string* error) {
  varstream::MetricsDumpResultFrame result;
  varstream::JsonValue doc;
  if (!varstream::DecodeMetricsDumpResult(payload, &result) ||
      !varstream::ParseJson(result.json, &doc, error)) {
    if (error->empty()) *error = "malformed MetricsDumpResult";
    return false;
  }
  const varstream::JsonValue* view = merged ? doc.Find("merged") : nullptr;
  if (view == nullptr) view = doc.Find("node");
  varstream::MetricsSnapshot snap;
  if (view == nullptr ||
      !varstream::MetricsSnapshotFromJsonValue(*view, &snap, error)) {
    if (error->empty()) *error = "metrics document without a registry";
    return false;
  }
  *out = snap.AggregateByName();
  return true;
}

/// Exact per-site and global counts of everything generated so far — the
/// ground truth every mid-run Query is checked against.
class Truth {
 public:
  Truth() : per_site_(kSites, 0) {}
  void Apply(std::span<const CountUpdate> updates) {
    for (const CountUpdate& u : updates) {
      int64_t& fi = per_site_[u.site];
      sum_abs_ -= std::llabs(fi);
      fi += u.delta;
      sum_abs_ += std::llabs(fi);
      f_ += u.delta;
    }
    n_ += updates.size();
  }
  int64_t f() const { return f_; }
  int64_t sum_abs() const { return sum_abs_; }
  uint64_t n() const { return n_; }

 private:
  std::vector<int64_t> per_site_;
  int64_t f_ = 0;
  int64_t sum_abs_ = 0;
  uint64_t n_ = 0;
};

/// The bulk-walk / tree-walk input: the registry's "random-walk" stream
/// over kSites uniformly assigned sites, restarted every kWalkSegment
/// steps. A restart walks every site's count f_i straight back to 0 in
/// unit steps (round robin over the sites still off zero) and then starts
/// a fresh seeded walk. Without restarts one walk's message cost per
/// update swings by 2x between seeds and drifts as the |f_i| grow with
/// run length; with them every run averages many independent walks, so
/// runs of different seeds and lengths measure the same workload.
class WalkStream {
 public:
  explicit WalkStream(uint64_t seed) : seed_(seed), f_(kSites, 0) {
    StartSegment();
  }

  void Fill(std::span<CountUpdate> out) {
    size_t pos = 0;
    while (pos < out.size()) {
      if (walk_left_ > 0) {
        size_t want = static_cast<size_t>(
            std::min<uint64_t>(walk_left_, out.size() - pos));
        size_t got = source_->NextBatch(out.subspan(pos, want));
        for (size_t i = pos; i < pos + got; ++i)
          f_[out[i].site] += out[i].delta;
        pos += got;
        walk_left_ -= got;
      } else if (ReturnStep(&out[pos])) {
        ++pos;
      } else {
        StartSegment();
      }
    }
  }

 private:
  void StartSegment() {
    varstream::StreamSpec spec;
    spec.num_sites = kSites;
    spec.seed = varstream::Mix64(seed_ * 1000003 + segment_++);
    source_ = varstream::StreamRegistry::Instance().Create("random-walk", spec);
    walk_left_ = kWalkSegment;
  }

  /// One unit step toward 0 at the next site (round robin) whose count is
  /// off zero; false once every site is back at 0.
  bool ReturnStep(CountUpdate* out) {
    for (uint32_t tried = 0; tried < kSites; ++tried) {
      const uint32_t site = cursor_;
      cursor_ = (cursor_ + 1) % kSites;
      if (f_[site] != 0) {
        const int64_t delta = f_[site] > 0 ? -1 : 1;
        f_[site] += delta;
        *out = CountUpdate{site, delta};
        return true;
      }
    }
    return false;
  }

  uint64_t seed_;
  uint64_t segment_ = 0;
  std::unique_ptr<varstream::StreamSource> source_;
  uint64_t walk_left_ = 0;
  std::vector<int64_t> f_;  // per-site counts
  uint32_t cursor_ = 0;
};

/// The sensor-trickle input of one writer: the registry's
/// "nearly-monotone" stream (+4/-2 pattern, low variability) over
/// kSites uniformly assigned sites.
inline std::unique_ptr<varstream::StreamSource> MakeTrickleSource(
    uint64_t seed, uint32_t writer) {
  varstream::StreamSpec spec;
  spec.num_sites = kSites;
  spec.seed = varstream::Mix64(seed * 31 + writer + 1);
  return varstream::StreamRegistry::Instance().Create("nearly-monotone", spec);
}

/// Timestamped samples (latencies and the like); percentiles by nearest
/// rank.
class Samples {
 public:
  void Add(double v, int64_t t_ns = 0) { s_.push_back({t_ns, v}); }
  size_t size() const { return s_.size(); }
  double Percentile(double q) const {
    return Quantile(Values(0, INT64_MAX), q);
  }
  double Median() const { return Percentile(0.5); }

  /// The q-quantile within each `window_ns` slice of the run that holds
  /// at least kWindowMin samples, then the median over those slices, so
  /// that one multi-millisecond stall of the host spoils the tail of one
  /// slice instead of the whole run's. Falls back to the whole-run
  /// quantile when no slice is full enough.
  double WindowedPercentile(double q, int64_t origin, int64_t window_ns) const {
    static constexpr size_t kWindowMin = 200;
    int64_t last = origin;
    for (const auto& [t, v] : s_) last = std::max(last, t);
    std::vector<double> per_window;
    for (int64_t lo = origin; lo <= last; lo += window_ns) {
      std::vector<double> values = Values(lo, lo + window_ns);
      if (values.size() >= kWindowMin)
        per_window.push_back(Quantile(values, q));
    }
    if (per_window.empty()) return Percentile(q);
    return Quantile(per_window, 0.5);
  }

  void Append(const Samples& other) {
    s_.insert(s_.end(), other.s_.begin(), other.s_.end());
  }

 private:
  std::vector<double> Values(int64_t lo, int64_t hi) const {
    std::vector<double> out;
    for (const auto& [t, v] : s_)
      if (t >= lo && t < hi) out.push_back(v);
    return out;
  }
  static double Quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
  }

  std::vector<std::pair<int64_t, double>> s_;
};

/// Spans recorded around the benchmark's calls into each layer: name,
/// start, end, parent span and the request id shared by one request's
/// spans. Kept in memory and written out once, at the end of the run.
/// Disabled logs record nothing, so untraced runs pay one branch.
class SpanLog {
 public:
  static constexpr size_t kNone = SIZE_MAX;
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  size_t Begin(const char* name, size_t parent, uint64_t request) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return spans_.size() - 1;
  }
  void End(size_t span) {
    if (span != kNone) spans_[span].end_ns = NowNs();
  }
  /// Records an already-timed interval.
  size_t Add(const char* name, int64_t start_ns, int64_t end_ns, size_t parent,
             uint64_t request) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return spans_.size() - 1;
  }
  size_t size() const { return spans_.size(); }

  /// One JSON object per line: {"id","name","start_ns","end_ns",
  /// "parent","request"} (parent -1 for roots). Several logs (one per
  /// thread) go into one file with their ids renumbered.
  static bool WriteAll(const std::vector<const SpanLog*>& logs,
                       const std::string& path) {
    if (path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    size_t base = 0;
    for (const SpanLog* log : logs) {
      for (size_t i = 0; i < log->spans_.size(); ++i) {
        const Span& s = log->spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                     base + i, s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     s.parent == kNone
                         ? -1LL
                         : static_cast<long long>(base + s.parent),
                     static_cast<unsigned long long>(s.request));
      }
      base += log->spans_.size();
    }
    return std::fclose(f) == 0;
  }
  bool Write(const std::string& path) const { return WriteAll({this}, path); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    size_t parent;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// The metric block both programs print as their last stdout line:
/// {"metrics":{name:{"value":v,"unit":u,"samples":n}}, ...}.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    if (!body_.empty()) body_ += ",";
    varstream::AppendJsonString(&body_, name);
    body_ += ":{\"value\":";
    varstream::AppendJsonNumber(&body_, value);
    body_ += ",\"unit\":";
    varstream::AppendJsonString(&body_, unit);
    body_ += ",\"samples\":" + std::to_string(samples) + "}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace varbench

#endif  // VARBENCH_WORKLOADS_H_
