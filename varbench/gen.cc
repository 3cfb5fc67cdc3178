// varbench_gen — the benchmark's load generator. One process, at most
// four threads and four connections, driving a running varstream_serve
// or varstream_root over loopback with frames built by the wire codec
// only (wire.h). It checks every answer it gets and prints one JSON line:
//
//   {"correct":..,"valid":..,"errors":[..],"attempted":N,"failed":F,
//    "metrics":{name:{"value":v,"unit":u,"samples":n},...}}
//
//   varbench_gen --workload=bulk-walk|sensor-trickle|tree-walk --seed=S
//                --seconds=T --port=P --pids=PID[,PID...] [--trace=0|1]
//                [--spans=FILE]
//
// --pids names the processes of the system under test, whose CPU time
// (utime+stime from /proc) is charged per million updates. --trace=1
// measures the per-layer numbers instead of the end-to-end ones: the
// first half of the run is untraced, the second records spans, and the
// difference is reported as the tracing overhead.

#include <dirent.h>
#include <poll.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "core/registry.h"
#include "core/sharded.h"
#include "obs/metrics.h"
#include "wire.h"
#include "workloads.h"

namespace varbench {
namespace {

using varstream::FrameType;
using varstream::FrameView;
using varstream::SnapshotFrame;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint16_t port = 0;
  std::vector<int> pids;
  bool trace = false;
  std::string spans_path;
};

/// Everything one run decides about correctness and validity.
struct Verdict {
  bool valid = true;  // open-loop schedule kept (else the numbers lie)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  bool correct() const { return failed == 0; }
};

/// On-CPU time of the system under test: the first field of every
/// thread's /proc/<pid>/task/<tid>/schedstat (nanoseconds), summed over
/// its processes. Its threads (workers, shards, per-connection threads)
/// all outlive the measured window.
double CpuSeconds(const std::vector<int>& pids) {
  double total_ns = 0;
  for (int pid : pids) {
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    DIR* dir = opendir(tasks.c_str());
    if (dir == nullptr) continue;
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
      double ns = 0;
      if (in >> ns) total_ns += ns;
    }
    closedir(dir);
  }
  return total_ns / 1e9;
}

/// Relative-error check of one served estimate against the generator's
/// exact counts. Serial sessions carry the paper's |f - f^| <= eps|f|;
/// sharded engines (and the root, which runs them) carry the per-site
/// form |f - f^| <= eps * sum_i |f_i| (core/sharded.h).
bool WithinEpsilon(double estimate, int64_t f, int64_t sum_abs, bool sharded) {
  const double bound =
      kEpsilon * static_cast<double>(sharded ? sum_abs : std::llabs(f));
  return std::fabs(estimate - static_cast<double>(f)) <=
         bound + 1e-9 * (1 + bound);
}

/// Every p99 the benchmark reports: per one-second slice of the measured
/// window, then the median over slices (Samples::WindowedPercentile).
double P99(const Samples& samples, int64_t warm_ns) {
  return samples.WindowedPercentile(0.99, warm_ns, 1000000000);
}

/// Throughput and server CPU per one-second slice of the measured
/// window; the reported value is the median over slices, so a host stall
/// costs one slice instead of moving the whole run's figure.
class SliceMeter {
 public:
  explicit SliceMeter(const std::vector<int>& pids) : pids_(pids) {}

  /// Call often from the thread that counts acks; reads the CPU clocks
  /// once per slice boundary. `acked_updates` is cumulative.
  void Tick(int64_t now, uint64_t acked_updates, int64_t origin, int64_t end) {
    if (now < std::max(next_, origin) || now >= end) return;
    const double cpu = CpuSeconds(pids_);
    if (next_ != 0) {
      slices_.push_back(Slice{t_, now, acked_updates - updates_, cpu - cpu_});
    }
    t_ = now;
    updates_ = acked_updates;
    cpu_ = cpu;
    next_ = now + 1000000000;
  }

  /// Median updates/s over slices starting in [from, to).
  double Rate(int64_t from = 0, int64_t to = INT64_MAX) const {
    return Median(from, to, [](const Slice& s) {
      return s.updates / ((s.t1 - s.t0) / 1e9);
    });
  }
  /// Median server CPU seconds per million updates over slices.
  double CpuPerMupdate() const {
    return Median(0, INT64_MAX, [](const Slice& s) {
      return s.updates ? s.cpu / (s.updates / 1e6) : 0.0;
    });
  }
  size_t size() const { return slices_.size(); }

 private:
  struct Slice {
    int64_t t0, t1;
    uint64_t updates;
    double cpu;
  };
  template <typename F>
  double Median(int64_t from, int64_t to, F value) const {
    Samples values;
    for (const Slice& s : slices_)
      if (s.t0 >= from && s.t0 < to) values.Add(value(s));
    return values.Median();
  }

  const std::vector<int>& pids_;
  std::vector<Slice> slices_;
  int64_t next_ = 0, t_ = 0;
  uint64_t updates_ = 0;
  double cpu_ = 0;
};

/// Reports a latency series as `<stem>_p50_us` (median) and
/// `<stem>_p99_us` (windowed), each with its sample count.
void SetLatency(MetricSink* sink, const std::string& stem,
                const Samples& samples, int64_t warm_ns) {
  sink->Set(stem + "_p50_us", samples.Median(), "us", samples.size());
  sink->Set(stem + "_p99_us", P99(samples, warm_ns), "us", samples.size());
}

/// Scrapes MetricsDump and collapses labels (the root's "merged" view
/// when present, else the node's own registry).
bool ScrapeMetrics(uint16_t port, varstream::MetricsSnapshot* out,
                   std::string* error) {
  WireConn conn;
  if (!conn.Connect(port, error)) return false;
  FrameView reply;
  if (!conn.RoundTrip(FrameType::kMetricsDump,
                      varstream::EncodeMetricsDump({}),
                      FrameType::kMetricsDumpResult, &reply, error)) {
    return false;
  }
  return DecodeMetricsDump(reply.payload, /*merged=*/true, out, error);
}

/// Median round trip of a one-update PushBatch with nothing else in
/// flight, on its own session.
bool FrameRttUs(const Args& args, uint32_t shards, double* median_us,
                size_t* samples, std::string* error) {
  WireConn conn;
  if (!conn.Connect(args.port, error) ||
      !conn.Hello(MakeHello("rtt-" + std::to_string(args.seed), shards,
                            args.seed), error)) {
    return false;
  }
  Samples rtt;
  std::vector<uint8_t> frame;
  const CountUpdate one{0, 1};
  for (uint64_t seq = 0; seq < 2000; ++seq) {
    frame.clear();
    varstream::AppendPushBatchFrame(&frame, seq, std::span(&one, 1));
    int64_t t0 = NowNs();
    if (!conn.SendRaw(frame.data(), frame.size())) {
      *error = "send failed";
      return false;
    }
    FrameView view;
    if (!conn.Read(&view, error)) return false;
    if (view.type != FrameType::kPushAck)
      return WireConn::Unexpected(view, "PushAck", error);
    if (seq >= 200) rtt.Add((NowNs() - t0) / 1e3);
  }
  *median_us = rtt.Median();
  *samples = rtt.size();
  return true;
}

// ---------------------------------------------------------------------
// bulk-walk and tree-walk: the closed loop.

struct WalkRequest {
  bool query = false;
  uint64_t seq = 0;        // push: frame sequence number
  uint64_t time = 0;       // push: session clock after it; query: at send
  int64_t f = 0;           // query: exact f at `time`
  int64_t sum_abs = 0;     // query: exact sum_i |f_i| at `time`
  int64_t send_ns = 0;
  size_t tx_bytes = 0;
  size_t span = SpanLog::kNone;
};

struct WalkRecord {  // a served Snapshot kept for the reference replay
  uint64_t time;
  SnapshotFrame snap;
};

struct PhaseStats {  // latencies of one measured phase
  Samples push_ack_us, query_us, late_us;
};

class WalkLoop {
 public:
  WalkLoop(const Args& args, uint32_t shards, Verdict* verdict)
      : args_(args), shards_(shards), verdict_(verdict), spans_(args.trace) {}

  bool Run(std::string* error) {
    const varstream::HelloFrame hello =
        MakeHello("walk-" + std::to_string(args_.seed), shards_, args_.seed);
    if (!conn_.Connect(args_.port, error) || !conn_.Hello(hello, error))
      return false;
    prefix_bytes_ = conn_.bytes_sent() + conn_.bytes_received();

    WalkStream stream(args_.seed);
    Truth truth;
    std::vector<CountUpdate> batch(kWalkFrame);
    std::deque<WalkRequest> inflight;
    std::deque<int64_t> slot_free;  // when each free window slot opened
    uint32_t pushes_inflight = 0;
    uint64_t next_seq = 0, last_query_at = 0;

    const int64_t start = NowNs();
    const int64_t warm = start + static_cast<int64_t>(
                                     std::min(1.0, args_.seconds / 10) * 1e9);
    const int64_t stop = start + static_cast<int64_t>(args_.seconds * 1e9);
    warm_ns_ = warm;
    // --trace=1: the first half is the untraced reference, the second
    // half records spans.
    const int64_t traced_from =
        args_.trace ? warm + (stop - warm) / 2 : INT64_MAX;
    traced_from_ = traced_from;
    for (uint32_t i = 0; i < kWalkWindow; ++i) slot_free.push_back(start);
    uint64_t acked_updates = 0;

    auto send_query = [&](int64_t now) {
      WalkRequest q;
      q.query = true;
      q.time = truth.n();
      q.f = truth.f();
      q.sum_abs = truth.sum_abs();
      q.span = SpanBegin("query", SpanLog::kNone, q.time);
      q.send_ns = now;
      uint64_t before = conn_.bytes_sent();
      if (!conn_.Send(FrameType::kQuery, {})) return false;
      q.tx_bytes = conn_.bytes_sent() - before;
      ++verdict_->attempted;
      inflight.push_back(q);
      return true;
    };

    for (bool sending = true;;) {
      int64_t now = NowNs();
      if (sending && now >= stop) sending = false;
      slices_.Tick(now, acked_updates, warm, stop);
      spans_active_ = now >= traced_from;
      while (sending && pushes_inflight < kWalkWindow) {
        if (truth.n() > 0 && truth.n() % kWalkQueryEvery == 0 &&
            last_query_at != truth.n()) {
          last_query_at = truth.n();
          if (!send_query(now)) return SendFailed(error);
        }
        WalkRequest p;
        p.seq = next_seq++;
        p.span = SpanBegin("frame", SpanLog::kNone, p.seq);
        stream.Fill(batch);
        truth.Apply(batch);
        p.time = truth.n();
        size_t s = SpanBegin("encode", p.span, p.seq);
        frame_.clear();
        varstream::AppendPushBatchFrame(&frame_, p.seq, batch);
        spans_.End(s);
        s = SpanBegin("send", p.span, p.seq);
        p.send_ns = NowNs();
        if (!conn_.SendRaw(frame_.data(), frame_.size()))
          return SendFailed(error);
        spans_.End(s);
        p.tx_bytes = frame_.size();
        ++verdict_->attempted;
        ++frames_sent_;
        PhaseStats& phase = Phase(p.send_ns, traced_from);
        if (p.send_ns >= warm)
          phase.late_us.Add((p.send_ns - slot_free.front()) / 1e3, p.send_ns);
        slot_free.pop_front();
        inflight.push_back(p);
        ++pushes_inflight;
        now = NowNs();
        if (now >= stop) sending = false;
      }
      if (inflight.empty()) break;

      FrameView view;
      size_t rx = 0;
      if (!conn_.Read(&view, error, &rx)) return false;
      const int64_t t = NowNs();
      WalkRequest req = inflight.front();
      inflight.pop_front();
      PhaseStats& phase = Phase(req.send_ns, traced_from);
      const bool counted = req.send_ns >= warm;
      if (req.query) {
        SnapshotFrame snap;
        if (view.type != FrameType::kSnapshot ||
            !varstream::DecodeSnapshot(view.payload, &snap)) {
          return WireConn::Unexpected(view, "Snapshot", error);
        }
        spans_.End(req.span);
        if (counted) phase.query_us.Add((t - req.send_ns) / 1e3, t);
        CheckQuery(req, snap);
        if (req.time <= kCountPrefix) prefix_bytes_ += req.tx_bytes + rx;
        if (req.time == kCountPrefix) prefix_snapshot_ = snap;
        continue;
      }
      if (view.type == FrameType::kOverloaded) {
        // The window (8) is far below the server's pending-batch cap, so a
        // refusal means the system under test misbehaved; the run stops.
        verdict_->Fail("frame " + std::to_string(req.seq) +
                       " refused (Overloaded)");
        *error = "refused with Overloaded at " + std::to_string(kWalkWindow) +
                 " frames in flight";
        return false;
      }
      varstream::PushAckFrame ack;
      if (view.type != FrameType::kPushAck ||
          !varstream::DecodePushAck(view.payload, &ack)) {
        return WireConn::Unexpected(view, "PushAck", error);
      }
      if (ack.seq != req.seq || ack.session_time != req.time) {
        verdict_->Fail("ack for seq " + std::to_string(ack.seq) + " at time " +
                       std::to_string(ack.session_time) + ", expected seq " +
                       std::to_string(req.seq) + " at " +
                       std::to_string(req.time));
      }
      spans_.End(req.span);
      ++frames_acked_;
      acked_updates += kWalkFrame;
      --pushes_inflight;
      slot_free.push_back(t);
      if (req.time <= kCountPrefix) prefix_bytes_ += req.tx_bytes + rx;
      if (counted) {
        phase.push_ack_us.Add((t - req.send_ns) / 1e3, t);
      }
    }
    // Final snapshot after the drain: checked like every other Query.
    if (!send_query(NowNs())) return SendFailed(error);
    FrameView view;
    SnapshotFrame snap;
    if (!conn_.Read(&view, error)) return false;
    if (view.type != FrameType::kSnapshot ||
        !varstream::DecodeSnapshot(view.payload, &snap)) {
      return WireConn::Unexpected(view, "Snapshot", error);
    }
    CheckQuery(inflight.back(), snap);
    if (truth.n() < kCountPrefix) {
      *error = "run ended at " + std::to_string(truth.n()) +
               " updates, before the count prefix " +
               std::to_string(kCountPrefix) + " (raise --seconds)";
      return false;
    }
    return true;
  }

  /// Replays the exact stream through the in-process engine the server
  /// builds for this Hello and compares every served Snapshot bit for bit.
  void CheckAgainstReference() {
    const varstream::HelloFrame hello = MakeHello("", shards_, args_.seed);
    std::string error;
    auto reference = varstream::ShardedTracker::Create(
        kTracker, hello.options, shards_, &error);
    if (reference == nullptr) {
      verdict_->Fail("reference: " + error);
      return;
    }
    WalkStream stream(args_.seed);
    std::vector<CountUpdate> batch(kWalkFrame);
    uint64_t time = 0;
    size_t next = 0;
    while (next < records_.size()) {
      while (next < records_.size() && records_[next].time == time) {
        if (!SameSnapshot(records_[next].snap, reference->Snapshot())) {
          verdict_->Fail("snapshot at time " + std::to_string(time) +
                         " differs from the in-process run");
        }
        ++next;
      }
      if (next == records_.size()) break;
      stream.Fill(batch);
      reference->PushBatch(batch);
      time += kWalkFrame;
    }
  }

  void Report(MetricSink* e2e, MetricSink* layers) {
    const PhaseStats& all = untraced_;
    if (!args_.trace) {
      e2e->Set("ingest_updates_per_s", slices_.Rate(), "1/s", slices_.size());
      SetLatency(e2e, "push_ack", all.push_ack_us, warm_ns_);
      SetLatency(e2e, "query", all.query_us, warm_ns_);
      e2e->Set("gen_late_p99_us", P99(all.late_us, warm_ns_), "us",
               all.late_us.size());
    } else {
      const double untraced = slices_.Rate(0, traced_from_);
      const double traced = slices_.Rate(traced_from_);
      layers->Set("trace.overhead_pct",
                  traced > 0 ? (untraced / traced - 1) * 100 : 0, "%",
                  traced_.push_ack_us.size());
      layers->Set("trace.spans", static_cast<double>(spans_.size()), "count");
    }
    e2e->Set("server_cpu_s_per_mupdate", slices_.CpuPerMupdate(), "s",
             slices_.size());
    e2e->Set("tracker_msgs_per_kupdate",
             prefix_snapshot_.messages * 1000.0 / kCountPrefix, "count",
             kCountPrefix);
    e2e->Set("wire_bytes_per_update",
             static_cast<double>(prefix_bytes_) / kCountPrefix, "bytes",
             kCountPrefix);
    layers->Set("service.useful_frame_ratio",
                frames_sent_ > 0 ? double(frames_acked_) / frames_sent_ : 0,
                "ratio", frames_sent_);
  }

  const SpanLog& spans() const { return spans_; }

 private:
  PhaseStats& Phase(int64_t send_ns, int64_t traced_from) {
    return send_ns >= traced_from ? traced_ : untraced_;
  }
  size_t SpanBegin(const char* name, size_t parent, uint64_t request) {
    return spans_active_ ? spans_.Begin(name, parent, request) : SpanLog::kNone;
  }
  bool SendFailed(std::string* error) {
    *error = "send failed";
    return false;
  }
  void CheckQuery(const WalkRequest& q, const SnapshotFrame& snap) {
    if (snap.time != q.time) {
      verdict_->Fail("query sent at time " + std::to_string(q.time) +
                     " answered at " + std::to_string(snap.time));
      return;
    }
    if (!WithinEpsilon(snap.estimate, q.f, q.sum_abs, shards_ > 0)) {
      verdict_->Fail("estimate " + std::to_string(snap.estimate) +
                     " outside eps of f=" + std::to_string(q.f) + " at time " +
                     std::to_string(q.time));
    }
    records_.push_back(WalkRecord{q.time, snap});
  }

  const Args& args_;
  uint32_t shards_;
  Verdict* verdict_;
  SpanLog spans_;
  bool spans_active_ = false;
  WireConn conn_;
  std::vector<uint8_t> frame_;
  PhaseStats untraced_, traced_;
  std::vector<WalkRecord> records_;
  SnapshotFrame prefix_snapshot_;
  uint64_t prefix_bytes_ = 0;
  uint64_t frames_sent_ = 0, frames_acked_ = 0;
  SliceMeter slices_{args_.pids};
  int64_t warm_ns_ = 0, traced_from_ = INT64_MAX;
};

// ---------------------------------------------------------------------
// sensor-trickle: the open loop.

/// Sleeps until `due` on the monotonic clock.
void SleepUntil(int64_t due) {
  timespec ts{static_cast<time_t>(due / 1000000000),
              static_cast<long>(due % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

struct Schedule {  // the open loop's fixed timeline
  int64_t start = 0, warm = 0, stop = 0, traced_from = INT64_MAX;
  uint64_t frames = 0;  // per writer
};

struct ReaderStats {
  Samples query_us, range_us, dump_us;
  Verdict verdict;
};

/// The fourth connection: attached to writer 0's session, it issues one
/// read every kTrickleReadPeriodNs, rotating Query, QueryRange and
/// MetricsDump, each timed from its due time. Every Query estimate is
/// checked against writer 0's exact f at the answered time.
void RunReader(const Args& args, const varstream::HelloFrame& hello,
               const std::vector<int64_t>* f_at_frame, const Schedule& plan,
               ReaderStats* out) {
  prctl(PR_SET_TIMERSLACK, 1);
  WireConn conn;
  std::string error;
  if (!conn.Connect(args.port, &error) || !conn.Hello(hello, &error)) {
    out->verdict.Fail("reader: " + error);
    return;
  }
  const std::vector<uint8_t> range_query =
      varstream::EncodeQueryRange(MakeHistoryQuery(hello.session));
  const std::vector<uint8_t> dump = varstream::EncodeMetricsDump({});
  for (uint64_t k = 0;; ++k) {
    const int64_t due =
        plan.start + static_cast<int64_t>(k) * kTrickleReadPeriodNs;
    if (due >= plan.stop) break;
    SleepUntil(due);
    ++out->verdict.attempted;
    FrameView reply;
    bool ok = false;
    switch (k % 3) {
      case 0: {
        ok = conn.RoundTrip(FrameType::kQuery, {}, FrameType::kSnapshot, &reply,
                            &error);
        SnapshotFrame snap;
        if (ok && !varstream::DecodeSnapshot(reply.payload, &snap)) ok = false;
        if (!ok) break;
        if (due >= plan.warm) out->query_us.Add((NowNs() - due) / 1e3, due);
        const uint64_t frame = snap.time / kTrickleFrame;
        if (snap.time % kTrickleFrame != 0 || frame >= f_at_frame->size() ||
            !WithinEpsilon(snap.estimate, (*f_at_frame)[frame], 0, false)) {
          out->verdict.Fail("reader query at time " +
                            std::to_string(snap.time) + " estimate " +
                            std::to_string(snap.estimate) +
                            " outside eps of the exact count");
        }
        break;
      }
      case 1: {
        ok = conn.RoundTrip(FrameType::kQueryRange, range_query,
                            FrameType::kQueryRangeResult, &reply, &error);
        varstream::QueryRangeResultFrame result;
        if (ok && !varstream::DecodeQueryRangeResult(reply.payload, &result))
          ok = false;
        if (!ok) break;
        if (due >= plan.warm) out->range_us.Add((NowNs() - due) / 1e3);
        break;
      }
      default: {
        ok = conn.RoundTrip(FrameType::kMetricsDump, dump,
                            FrameType::kMetricsDumpResult, &reply, &error);
        varstream::MetricsDumpResultFrame result;
        if (ok && !varstream::DecodeMetricsDumpResult(reply.payload, &result))
          ok = false;
        if (ok && due >= plan.warm) out->dump_us.Add((NowNs() - due) / 1e3);
        break;
      }
    }
    if (!ok) {
      out->verdict.Fail("reader: " +
                        (error.empty() ? "malformed reply" : error));
      return;
    }
  }
}

/// One writer connection: frame i of its stream is due at start + offset
/// + i * period and is sent then whether or not earlier frames were
/// acked. All writers are stepped by one spinning thread, which both
/// keeps the schedule (a sleeping thread wakes tens of microseconds late
/// on a virtualized host) and timestamps every ack as soon as it lands.
class TrickleWriter {
 public:
  TrickleWriter(const Args& args, uint32_t index)
      : args_(args), index_(index), spans_(args.trace),
        source_(MakeTrickleSource(args.seed, index)), batch_(kTrickleFrame) {
    hello_ = MakeHello("trickle-" + std::to_string(args.seed) + "-w" +
                           std::to_string(index),
                       0, args.seed * 8 + index);
  }

  bool Connect(std::string* error) {
    return conn_.Connect(args_.port, error) && conn_.Hello(hello_, error);
  }

  /// Sends the next frame if it is due, then takes every ack that has
  /// arrived. Returns false once every frame is acked or the writer failed.
  bool Step(const Schedule& plan) {
    if (failed_ || acked_ >= plan.frames) return false;
    const int64_t now = NowNs();
    if (now > plan.stop + 5000000000LL) return Abort("acks stopped arriving");
    const int64_t due = NextDue(plan);
    if (sent_ < plan.frames && due <= now) {
      const bool traced = due >= plan.traced_from;
      size_t span = traced ? spans_.Begin("frame", SpanLog::kNone, sent_)
                           : SpanLog::kNone;
      source_->NextBatch(batch_);
      size_t s = traced ? spans_.Begin("encode", span, sent_) : SpanLog::kNone;
      frame_.clear();
      varstream::AppendPushBatchFrame(&frame_, sent_, batch_);
      spans_.End(s);
      const int64_t send_ns = NowNs();
      if (!conn_.SendRaw(frame_.data(), frame_.size()))
        return Abort("send failed");
      if (traced) spans_.Add("send", send_ns, NowNs(), span, sent_);
      if (due >= plan.warm)
        Phase(due, plan).late_us.Add((send_ns - due) / 1e3, due);
      inflight_.emplace_back(due, span);
      ++sent_;
      ++verdict_.attempted;
    }
    if (now >= std::max(next_sample_, plan.start) && now < plan.stop) {
      backlog_.push_back(static_cast<double>(sent_ - acked_));
      next_sample_ = now + 1000000;
    }
    FrameView view;
    std::string error;
    for (int r; (r = conn_.Poll(&view, &error)) != 0;) {
      if (r < 0) return Abort(error);
      const int64_t t = NowNs();
      varstream::PushAckFrame ack;
      if (view.type == FrameType::kOverloaded) {
        varstream::OverloadedFrame over;
        varstream::DecodeOverloaded(view.payload, &over);
        return Abort("frame " + std::to_string(over.seq) +
                     " refused with Overloaded (pending " +
                     std::to_string(over.pending) + " of " +
                     std::to_string(over.cap) + ")");
      }
      if (view.type != FrameType::kPushAck ||
          !varstream::DecodePushAck(view.payload, &ack) || inflight_.empty()) {
        WireConn::Unexpected(view, "PushAck", &error);
        return Abort(error);
      }
      if (ack.seq != acked_ ||
          ack.session_time != (acked_ + 1) * kTrickleFrame) {
        verdict_.Fail("writer " + std::to_string(index_) +
                      ": ack out of order");
      }
      const auto [frame_due, span] = inflight_.front();
      inflight_.pop_front();
      spans_.End(span);
      ++acked_;
      if (frame_due >= plan.warm)
        Phase(frame_due, plan)
            .push_ack_us.Add((t - frame_due) / 1e3, frame_due);
    }
    return true;
  }

  /// When the next frame is due (INT64_MAX once every frame is sent).
  int64_t NextDue(const Schedule& plan) const {
    if (sent_ >= plan.frames) return INT64_MAX;
    return plan.start + kTrickleFramePeriodNs * index_ / kTrickleWriters +
           static_cast<int64_t>(sent_) * kTrickleFramePeriodNs;
  }
  int fd() const { return conn_.fd(); }

  /// Final Snapshot, compared bit for bit with an in-process run of the
  /// same tracker over the same frames.
  void CheckFinal(const Schedule& plan) {
    if (failed_) return;
    ++verdict_.attempted;
    FrameView reply;
    SnapshotFrame snap;
    std::string error;
    if (!conn_.RoundTrip(FrameType::kQuery, {}, FrameType::kSnapshot, &reply,
                         &error) ||
        !varstream::DecodeSnapshot(reply.payload, &snap)) {
      verdict_.Fail("writer " + std::to_string(index_) +
                    " final query: " + error);
      return;
    }
    messages_ = snap.messages;
    auto reference = varstream::TrackerRegistry::Instance().Create(
        kTracker, hello_.options);
    auto source = MakeTrickleSource(args_.seed, index_);
    std::vector<CountUpdate> batch(kTrickleFrame);
    for (uint64_t i = 0; i < plan.frames; ++i) {
      source->NextBatch(batch);
      reference->PushBatch(batch);
    }
    if (!SameSnapshot(snap, reference->Snapshot())) {
      verdict_.Fail("writer " + std::to_string(index_) +
                    " snapshot differs from the in-process run");
    }
  }

  const varstream::HelloFrame& hello() const { return hello_; }
  Verdict& verdict() { return verdict_; }
  PhaseStats& untraced() { return untraced_; }
  PhaseStats& traced() { return traced_; }
  const std::vector<double>& backlog() const { return backlog_; }
  const SpanLog& spans() const { return spans_; }
  uint64_t wire_bytes() const {
    return conn_.bytes_sent() + conn_.bytes_received();
  }
  uint64_t messages() const { return messages_; }
  uint64_t acked_updates() const { return acked_ * kTrickleFrame; }

 private:
  PhaseStats& Phase(int64_t due, const Schedule& plan) {
    return due >= plan.traced_from ? traced_ : untraced_;
  }
  bool Abort(const std::string& why) {
    verdict_.Fail("writer " + std::to_string(index_) + ": " + why);
    failed_ = true;
    return false;
  }

  const Args& args_;
  uint32_t index_;
  varstream::HelloFrame hello_;
  WireConn conn_;
  SpanLog spans_;
  Verdict verdict_;
  PhaseStats untraced_, traced_;
  std::unique_ptr<varstream::StreamSource> source_;
  std::vector<CountUpdate> batch_;
  std::vector<uint8_t> frame_;
  std::deque<std::pair<int64_t, size_t>> inflight_;  // (due, span)
  std::vector<double> backlog_;
  int64_t next_sample_ = 0;
  bool failed_ = false;
  uint64_t sent_ = 0, acked_ = 0, messages_ = 0;
};

class TrickleLoop {
 public:
  static constexpr int64_t kSpinNs = 30000;

  TrickleLoop(const Args& args, Verdict* verdict)
      : args_(args), verdict_(verdict) {}

  bool Run(std::string* error) {
    for (uint32_t w = 0; w < kTrickleWriters; ++w) {
      writers_.push_back(std::make_unique<TrickleWriter>(args_, w));
      if (!writers_.back()->Connect(error)) return false;
    }
    plan_.frames =
        static_cast<uint64_t>(args_.seconds * 1e9 / kTrickleFramePeriodNs);
    // Writer 0's exact f at every frame boundary, for the reader's checks.
    std::vector<int64_t> f_at_frame(plan_.frames + 1, 0);
    {
      auto source = MakeTrickleSource(args_.seed, 0);
      std::vector<CountUpdate> batch(kTrickleFrame);
      for (uint64_t i = 0; i < plan_.frames; ++i) {
        source->NextBatch(batch);
        int64_t f = f_at_frame[i];
        for (const CountUpdate& u : batch) f += u.delta;
        f_at_frame[i + 1] = f;
      }
    }
    plan_.start = NowNs() + 20000000;  // first frame due in 20 ms
    plan_.warm = plan_.start + static_cast<int64_t>(
                                   std::min(1.0, args_.seconds / 10) * 1e9);
    plan_.stop = plan_.start + static_cast<int64_t>(plan_.frames) *
                                   kTrickleFramePeriodNs;
    if (args_.trace)
      plan_.traced_from = plan_.warm + (plan_.stop - plan_.warm) / 2;

    // Two threads: the reader, and this one stepping every writer. It
    // blocks in ppoll until an ack lands or shortly before the next frame
    // falls due, then spins to the due time: a timer wakeup alone can be
    // tens of microseconds late on a virtualized host.
    prctl(PR_SET_TIMERSLACK, 1);
    std::thread reader(RunReader, std::cref(args_),
                       std::cref(writers_[0]->hello()), &f_at_frame,
                       std::cref(plan_), &reader_);
    std::vector<pollfd> fds;
    for (auto& wr : writers_) fds.push_back({wr->fd(), POLLIN, 0});
    for (bool busy = true; busy;) {
      busy = false;
      int64_t next_due = INT64_MAX;
      uint64_t acked_updates = 0;
      for (auto& wr : writers_) {
        busy |= wr->Step(plan_);
        next_due = std::min(next_due, wr->NextDue(plan_));
        acked_updates += wr->acked_updates();
      }
      slices_.Tick(NowNs(), acked_updates, plan_.warm, plan_.stop);
      const int64_t wait_ns =
          std::min<int64_t>(next_due - kSpinNs - NowNs(), 1000000);
      if (busy && wait_ns > 0) {
        timespec ts{0, static_cast<long>(wait_ns)};
        ppoll(fds.data(), fds.size(), &ts, nullptr);
      }
    }
    reader.join();

    Merge(reader_.verdict);
    for (auto& wr : writers_) {
      wr->CheckFinal(plan_);
      Merge(wr->verdict());
      untraced_.push_ack_us.Append(wr->untraced().push_ack_us);
      untraced_.late_us.Append(wr->untraced().late_us);
      traced_.push_ack_us.Append(wr->traced().push_ack_us);
      traced_.late_us.Append(wr->traced().late_us);
      wire_bytes_ += wr->wire_bytes();
      messages_ += wr->messages();
      const std::vector<double>& b = wr->backlog();
      if (backlog_.size() < b.size()) backlog_.resize(b.size(), 0.0);
      for (size_t i = 0; i < b.size(); ++i) backlog_[i] += b[i];
    }
    updates_ = plan_.frames * kTrickleWriters * kTrickleFrame;
    return true;
  }

  /// Marks the run invalid (not slow) when the generator could not keep
  /// its schedule or the backlog grew: an open loop that fell behind
  /// measured a different offered load than the one it claims.
  void CheckSchedule() {
    Samples late;
    late.Append(untraced_.late_us);
    late.Append(traced_.late_us);
    const double late_p99 = P99(late, plan_.warm);
    const size_t q = backlog_.size() / 4;
    double head = 0, tail = 0;
    for (size_t i = 0; i < q; ++i) {
      head += backlog_[i];
      tail += backlog_[backlog_.size() - 1 - i];
    }
    head = q ? head / q : 0;
    tail = q ? tail / q : 0;
    if (late_p99 > kTrickleFramePeriodNs / 1e3) {
      verdict_->valid = false;
      verdict_->errors.push_back("invalid run: generator late p99 " +
                                 std::to_string(late_p99) +
                                 " us exceeds the schedule period");
    }
    if (tail > head + 2.0 * kTrickleWriters) {
      verdict_->valid = false;
      verdict_->errors.push_back("invalid run: backlog grew from " +
                                 std::to_string(head) + " to " +
                                 std::to_string(tail) + " frames");
    }
    backlog_head_ = head;
    backlog_tail_ = tail;
  }

  void Report(MetricSink* e2e, MetricSink* layers) {
    if (!args_.trace) {
      PhaseStats& all = untraced_;
      e2e->Set("ingest_updates_per_s", slices_.Rate(), "1/s", slices_.size());
      SetLatency(e2e, "push_ack", all.push_ack_us, plan_.warm);
      SetLatency(e2e, "query", reader_.query_us, plan_.warm);
      e2e->Set("gen_late_p99_us", P99(all.late_us, plan_.warm), "us",
               all.late_us.size());
      e2e->Set("query_range_p50_us", reader_.range_us.Median(), "us",
               reader_.range_us.size());
      e2e->Set("metrics_dump_p50_us", reader_.dump_us.Median(), "us",
               reader_.dump_us.size());
      const size_t quarter = backlog_.size() / 4;
      e2e->Set("backlog_head_frames", backlog_head_, "frames", quarter);
      e2e->Set("backlog_tail_frames", backlog_tail_, "frames", quarter);
    } else {
      const double untraced = untraced_.push_ack_us.Median();
      const double traced = traced_.push_ack_us.Median();
      layers->Set("trace.overhead_pct",
                  untraced > 0 ? (traced / untraced - 1) * 100 : 0, "%",
                  traced_.push_ack_us.size());
      size_t spans = 0;
      for (auto& wr : writers_) spans += wr->spans().size();
      layers->Set("trace.spans", static_cast<double>(spans), "count");
    }
    e2e->Set("server_cpu_s_per_mupdate", slices_.CpuPerMupdate(), "s",
             slices_.size());
    e2e->Set("tracker_msgs_per_kupdate", messages_ * 1000.0 / updates_, "count",
             updates_);
    e2e->Set("wire_bytes_per_update",
             static_cast<double>(wire_bytes_) / updates_, "bytes", updates_);
    layers->Set("service.useful_frame_ratio", 1.0, "ratio",
                updates_ / kTrickleFrame);
  }

  bool WriteSpans(const std::string& path) const {
    std::vector<const SpanLog*> logs;
    for (const auto& wr : writers_) logs.push_back(&wr->spans());
    return SpanLog::WriteAll(logs, path);
  }

 private:
  void Merge(const Verdict& v) {
    verdict_->attempted += v.attempted;
    verdict_->failed += v.failed;
    for (const std::string& e : v.errors)
      if (verdict_->errors.size() < 20) verdict_->errors.push_back(e);
  }

  const Args& args_;
  Verdict* verdict_;
  Schedule plan_;
  std::vector<std::unique_ptr<TrickleWriter>> writers_;
  ReaderStats reader_;
  PhaseStats untraced_, traced_;
  std::vector<double> backlog_;
  SliceMeter slices_{args_.pids};
  double backlog_head_ = 0, backlog_tail_ = 0;
  uint64_t updates_ = 0, messages_ = 0, wire_bytes_ = 0;
};

void SetServiceLayerMetrics(const Args& args, uint32_t rtt_shards,
                            MetricSink* layers, Verdict* verdict) {
  std::string error;
  varstream::MetricsSnapshot snap;
  if (!ScrapeMetrics(args.port, &snap, &error)) {
    verdict->Fail("MetricsDump: " + error);
    return;
  }
  auto hist = [&](const char* name, double q, const char* out) {
    const varstream::MetricPoint* p = snap.Find(name);
    layers->Set(out, p ? p->hist.Percentile(q) : 0, "us",
                p ? p->hist.count() : 0);
  };
  hist("apply_latency_us", 0.99, "service.apply_latency_p99_us");
  hist("epoll_wait_us", 0.50, "service.epoll_wait_p50_us");
  // Only a root records these; a lone server reports 0 with 0 samples.
  hist("leaf_ack_us", 0.99, "hierarchy.leaf_ack_p99_us");
  hist("splice_us", 0.50, "hierarchy.splice_us");
  for (const char* name : {"overload_rejections", "seq_gap_rejections"}) {
    layers->Set(std::string("service.") + name,
                static_cast<double>(snap.CounterTotal(name)), "count");
  }
  const varstream::MetricPoint* peak = snap.Find("peak_pending_batches");
  layers->Set("service.peak_pending_batches",
              peak ? static_cast<double>(peak->gauge) : 0, "count");
  double rtt = 0;
  size_t samples = 0;
  if (!FrameRttUs(args, rtt_shards, &rtt, &samples, &error)) {
    verdict->Fail("frame rtt: " + error);
    return;
  }
  layers->Set("service.frame_rtt_us", rtt, "us", samples);
}

int Main(int argc, char** argv) {
  varstream::FlagParser flags(argc, argv);
  Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = flags.GetUint("seed", 1);
  args.seconds = flags.GetDouble("seconds", 10);
  args.port = static_cast<uint16_t>(flags.GetUint("port", 0));
  args.trace = flags.GetUint("trace", 0) != 0;
  args.spans_path = flags.GetString("spans", "");
  std::stringstream pids(flags.GetString("pids", ""));
  for (std::string pid; std::getline(pids, pid, ',');)
    if (!pid.empty()) args.pids.push_back(std::stoi(pid));
  if (args.port == 0 || args.seconds <= 0) {
    std::fprintf(stderr,
                 "varbench_gen: --port and --seconds > 0 are required\n");
    return 2;
  }

  Verdict verdict;
  MetricSink e2e, layers;
  std::string error;
  bool ran = false;
  std::function<bool()> write_spans;
  std::unique_ptr<WalkLoop> walk;
  std::unique_ptr<TrickleLoop> trickle;
  uint32_t rtt_shards = 0;
  if (args.workload == "bulk-walk" || args.workload == "tree-walk") {
    // bulk-walk: session shards=2 on the server. tree-walk: shards=1,
    // which the root hands to every leaf (per-leaf shards=1).
    rtt_shards = args.workload == "bulk-walk" ? 2 : 1;
    walk = std::make_unique<WalkLoop>(args, rtt_shards, &verdict);
    ran = walk->Run(&error);
    if (ran) {
      walk->CheckAgainstReference();
      walk->Report(&e2e, &layers);
    }
    write_spans = [&] { return walk->spans().Write(args.spans_path); };
  } else if (args.workload == "sensor-trickle") {
    trickle = std::make_unique<TrickleLoop>(args, &verdict);
    ran = trickle->Run(&error);
    if (ran) {
      trickle->CheckSchedule();
      trickle->Report(&e2e, &layers);
    }
    write_spans = [&] { return trickle->WriteSpans(args.spans_path); };
  } else {
    std::fprintf(stderr, "varbench_gen: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "varbench_gen: %s\n", error.c_str());
    return 1;
  }
  if (args.trace) {
    SetServiceLayerMetrics(args, rtt_shards, &layers, &verdict);
    if (!write_spans())
      verdict.Fail("cannot write spans to " + args.spans_path);
  }
  std::string errors;
  for (const std::string& e : verdict.errors) {
    if (!errors.empty()) errors += ",";
    varstream::AppendJsonString(&errors, e);
  }
  std::printf("{\"correct\":%s,\"valid\":%s,\"errors\":[%s],\"attempted\":%llu,"
              "\"failed\":%llu,\"metrics\":%s,\"per_layer\":%s}\n",
              verdict.correct() ? "true" : "false",
              verdict.valid ? "true" : "false", errors.c_str(),
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              e2e.Json().c_str(), layers.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace varbench

int main(int argc, char** argv) { return varbench::Main(argc, argv); }
