// varbench_layers — the layer ledger. Calls each layer's public functions
// in-process and prices it, then prints the cumulative ladder: ns/update
// on one fixed bulk-walk stream, each step adding one layer to the one
// before. The service and root steps run a real VarstreamServer /
// RootAggregator (in-process leaves) on loopback, driven by the same
// raw-socket wire client as varbench_gen.
//
//   varbench_layers --workload=W --seed=S --dir=WORKDIR [--spans=FILE]
//
// Per-layer metrics use the workload's own stream and frame size (the
// walk workloads: WalkStream, 4096-update frames; sensor-trickle:
// nearly-monotone, 32-update frames). Spans are recorded around every
// timed call and written to --spans. The last stdout line is
// {"correct":..,"errors":[..],"metrics":{...}}.

#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/registry.h"
#include "core/sharded.h"
#include "hierarchy/launcher.h"
#include "hierarchy/root.h"
#include "obs/metrics.h"
#include "service/server.h"
#include "stream/variability.h"
#include "wire.h"
#include "workloads.h"

namespace varbench {
namespace {

using varstream::FrameType;
using varstream::FrameView;

constexpr size_t kLadderUpdates = 1u << 21;
constexpr uint64_t kLadderSeed = 1;
constexpr int kReps = 5;

// Results of timed loops land here so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

struct Input {
  std::vector<CountUpdate> updates;
  size_t frame = 0;
  size_t frames() const { return updates.size() / frame; }
  std::span<const CountUpdate> Frame(size_t i) const {
    return std::span(updates).subspan(i * frame, frame);
  }
};

Input WalkInput(uint64_t seed) {
  Input in;
  in.frame = kWalkFrame;
  in.updates.resize(kLadderUpdates);
  WalkStream(seed).Fill(in.updates);
  return in;
}

Input TrickleInput(uint64_t seed) {
  Input in;
  in.frame = kTrickleFrame;
  in.updates.resize(kLadderUpdates / 2);
  MakeTrickleSource(seed, 0)->NextBatch(in.updates);
  return in;
}

class Ledger {
 public:
  explicit Ledger(const std::string& spans_path)
      : spans_(!spans_path.empty()), spans_path_(spans_path) {}

  /// Median wall time of kReps runs of `body`, each under its own span.
  double MedianNs(const char* name, const std::function<void()>& setup,
                  const std::function<void(size_t span)>& body) {
    Samples ns;
    for (int rep = 0; rep < kReps; ++rep) {
      if (setup) setup();
      size_t span = spans_.Begin(name, SpanLog::kNone, rep);
      int64_t t0 = NowNs();
      body(span);
      ns.Add(static_cast<double>(NowNs() - t0));
      spans_.End(span);
    }
    return ns.Median();
  }

  void Fail(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
  }

  MetricSink& metrics() { return metrics_; }
  SpanLog& spans() { return spans_; }

  int Finish() {
    if (!spans_.Write(spans_path_)) Fail("cannot write spans");
    std::string errors;
    for (const std::string& e : errors_) {
      if (!errors.empty()) errors += ",";
      varstream::AppendJsonString(&errors, e);
    }
    std::printf("{\"correct\":%s,\"errors\":[%s],\"metrics\":%s}\n",
                errors_.empty() ? "true" : "false", errors.c_str(),
                metrics_.Json().c_str());
    return 0;
  }

 private:
  SpanLog spans_;
  std::string spans_path_;
  MetricSink metrics_;
  std::vector<std::string> errors_;
};

std::unique_ptr<varstream::DistributedTracker> Serial() {
  return varstream::TrackerRegistry::Instance().Create(
      kTracker, MakeHello("", 0, kLadderSeed).options);
}

std::unique_ptr<varstream::ShardedTracker> Sharded(uint32_t shards) {
  std::string error;
  return varstream::ShardedTracker::Create(
      kTracker, MakeHello("", shards, kLadderSeed).options, shards, &error);
}

/// Pushes every frame of `in` into a fresh session with kWalkWindow
/// frames in flight (encoding each on the fly), then reads the final
/// Snapshot. Frame spans share the frame's sequence number.
bool PushAll(uint16_t port, const varstream::HelloFrame& hello,
             const Input& in, SpanLog* spans, size_t parent,
             varstream::SnapshotFrame* final_snapshot, std::string* error) {
  WireConn conn;
  if (!conn.Connect(port, error) || !conn.Hello(hello, error)) return false;
  std::vector<uint8_t> frame;
  std::deque<size_t> inflight;
  size_t next = 0, acked = 0;
  while (acked < in.frames()) {
    while (next < in.frames() && inflight.size() < kWalkWindow) {
      inflight.push_back(spans->Begin("frame", parent, next));
      frame.clear();
      varstream::AppendPushBatchFrame(&frame, next, in.Frame(next));
      if (!conn.SendRaw(frame.data(), frame.size())) {
        *error = "send failed";
        return false;
      }
      ++next;
    }
    FrameView view;
    varstream::PushAckFrame ack;
    if (!conn.Read(&view, error)) return false;
    if (view.type != FrameType::kPushAck ||
        !varstream::DecodePushAck(view.payload, &ack) || ack.seq != acked) {
      return WireConn::Unexpected(view, "PushAck in order", error);
    }
    spans->End(inflight.front());
    inflight.pop_front();
    ++acked;
  }
  FrameView view;
  if (!conn.RoundTrip(FrameType::kQuery, {}, FrameType::kSnapshot, &view,
                      error) ||
      !varstream::DecodeSnapshot(view.payload, final_snapshot)) {
    if (error->empty()) *error = "malformed Snapshot";
    return false;
  }
  return true;
}

/// Median round trip of `count` requests of one type on one connection.
double MedianRttUs(WireConn* conn, FrameType type,
                   std::span<const uint8_t> payload, FrameType want,
                   int count, SpanLog* spans, const char* name,
                   const std::function<void(const FrameView&)>& inspect,
                   std::string* error) {
  Samples rtt;
  for (int i = 0; i < count; ++i) {
    size_t span = spans->Begin(name, SpanLog::kNone, i);
    int64_t t0 = NowNs();
    FrameView reply;
    if (!conn->RoundTrip(type, payload, want, &reply, error)) return -1;
    rtt.Add((NowNs() - t0) / 1e3);
    spans->End(span);
    if (inspect) inspect(reply);
  }
  return rtt.Median();
}

/// protocol, core and sharded on the workload's own stream.
void MeasureInProcess(Ledger& ledger, const Input& in) {
  MetricSink& m = ledger.metrics();
  const double n = static_cast<double>(in.frames() * in.frame);

  varstream::VariabilityMeter meter(0);
  for (const CountUpdate& u : in.updates) meter.Push(u.delta);
  m.Set("stream.v_over_n", meter.value() / n, "ratio", in.updates.size());

  std::vector<uint8_t> buf;
  const double encode =
      ledger.MedianNs("protocol.encode", nullptr, [&](size_t) {
    for (size_t i = 0; i < in.frames(); ++i) {
      buf.clear();
      varstream::AppendPushBatchFrame(&buf, i, in.Frame(i));
    }
  });
  m.Set("protocol.encode_ns_per_update", encode / n, "ns", kReps);

  std::vector<uint8_t> wire;
  for (size_t i = 0; i < in.frames(); ++i)
    varstream::AppendPushBatchFrame(&wire, i, in.Frame(i));
  m.Set("protocol.frame_bytes_per_update", wire.size() / n, "bytes",
        in.frames());
  uint32_t crc = 0;
  const double crc_ns = ledger.MedianNs("protocol.crc", nullptr, [&](size_t) {
    crc ^= varstream::Crc32(wire);
  });
  m.Set("protocol.crc_gb_per_s", wire.size() / crc_ns, "GB/s", kReps);

  uint64_t checksum = 0;
  bool decoded = true;
  const double decode =
      ledger.MedianNs("protocol.decode_view", nullptr, [&](size_t) {
    std::span<const uint8_t> rest(wire);
    std::string error;
    while (!rest.empty()) {
      FrameView view;
      varstream::PushBatchView batch;
      size_t used = 0;
      if (varstream::DecodeFrameView(rest, &view, &used, &error) !=
              varstream::DecodeStatus::kOk ||
          !varstream::DecodePushBatchView(view.payload, &batch)) {
        decoded = false;
        return;
      }
      for (uint32_t i = 0; i < batch.count; ++i)
        checksum += batch.site(i) + static_cast<uint64_t>(batch.delta(i));
      rest = rest.subspan(used);
    }
  });
  if (!decoded) ledger.Fail("view decode rejected a well-formed frame");
  m.Set("protocol.decode_view_ns_per_update", decode / n, "ns", kReps);

  std::unique_ptr<varstream::DistributedTracker> serial;
  const double apply = ledger.MedianNs(
      "core.apply", [&] { serial = Serial(); },
      [&](size_t) {
        for (size_t i = 0; i < in.frames(); ++i) serial->PushBatch(in.Frame(i));
      });
  m.Set("core.apply_ns_per_update", apply / n, "ns", kReps);
  const varstream::TrackerSnapshot snap = serial->Snapshot();
  m.Set("core.msgs_over_v_eps",
        snap.messages / (meter.value() / kEpsilon), "ratio", 1);
  Samples snapshot_us;
  for (int i = 0; i < 1000; ++i) {
    int64_t t0 = NowNs();
    checksum += serial->Snapshot().messages;
    snapshot_us.Add((NowNs() - t0) / 1e3);
  }
  m.Set("core.snapshot_us", snapshot_us.Median(), "us", snapshot_us.size());

  std::unique_ptr<varstream::ShardedTracker> sharded;
  const double sharded_ns = ledger.MedianNs(
      "sharded.apply", [&] { sharded = Sharded(2); },
      [&](size_t) {
        for (size_t i = 0; i < in.frames(); ++i)
          sharded->PushBatch(in.Frame(i));
        checksum += sharded->Snapshot().messages;
      });
  m.Set("sharded.apply_ns_per_update", sharded_ns / n, "ns", kReps);
  m.Set("sharded.speedup_vs_serial", apply / sharded_ns, "ratio", kReps);
  sharded = Sharded(2);
  Samples drain_us;
  for (size_t i = 0; i < std::min<size_t>(in.frames(), 256); ++i) {
    sharded->PushBatch(in.Frame(i));
    int64_t t0 = NowNs();
    checksum += sharded->Snapshot().time;
    drain_us.Add((NowNs() - t0) / 1e3);
  }
  m.Set("sharded.drain_us", drain_us.Median(), "us", drain_us.size());
  g_sink = checksum ^ crc;
}

/// The seven-step ladder plus the service, history, obs and hierarchy
/// metrics, all on the fixed bulk-walk stream.
void MeasureLadder(Ledger& ledger, const std::string& dir) {
  MetricSink& m = ledger.metrics();
  const Input in = WalkInput(kLadderSeed);
  const double n = static_cast<double>(in.updates.size());
  std::vector<double> ladder;

  std::unique_ptr<varstream::DistributedTracker> serial;
  ladder.push_back(ledger.MedianNs(
      "ladder.1.apply", [&] { serial = Serial(); },
      [&](size_t) {
        for (size_t i = 0; i < in.frames(); ++i) serial->PushBatch(in.Frame(i));
      }));
  const varstream::TrackerSnapshot serial_want = serial->Snapshot();
  // Steps 2 and 3 share the client's one encode path, AppendPushBatchFrame
  // into a reused buffer. Step 3 times it whole; step 2 is step 3 less the
  // median cost of its Crc32 over the same frame bytes.
  std::vector<uint8_t> buf;
  const double framed = ledger.MedianNs(
      "ladder.3.crc", [&] { serial = Serial(); },
      [&](size_t) {
        for (size_t i = 0; i < in.frames(); ++i) {
          buf.clear();
          varstream::AppendPushBatchFrame(&buf, i, in.Frame(i));
          serial->PushBatch(in.Frame(i));
        }
      });
  std::vector<std::vector<uint8_t>> frames(in.frames());
  for (size_t i = 0; i < in.frames(); ++i)
    varstream::AppendPushBatchFrame(&frames[i], i, in.Frame(i));
  const double crc = ledger.MedianNs("ladder.crc_only", nullptr, [&](size_t) {
    uint64_t sum = 0;
    for (const std::vector<uint8_t>& f : frames)
      sum += varstream::Crc32(std::span(f).subspan(4, f.size() - 8));
    g_sink = g_sink + sum;
  });
  ladder.push_back(framed - crc);
  ladder.push_back(framed);
  std::vector<CountUpdate> walked;
  ladder.push_back(ledger.MedianNs(
      "ladder.4.view_decode", [&] { serial = Serial(); },
      [&](size_t) {
        std::string error;
        for (size_t i = 0; i < in.frames(); ++i) {
          buf.clear();
          varstream::AppendPushBatchFrame(&buf, i, in.Frame(i));
          FrameView view;
          varstream::PushBatchView batch;
          size_t used = 0;
          varstream::DecodeFrameView(buf, &view, &used, &error);
          varstream::DecodePushBatchView(view.payload, &batch);
          walked.clear();
          varstream::MaterializeUpdates(batch, &walked);
          serial->PushBatch(walked);
        }
      }));
  if (!(serial->Snapshot() == serial_want))
    ledger.Fail("view-decoded apply differs from direct apply");

  varstream::ServerOptions server_options;
  server_options.workers = 1;
  varstream::VarstreamServer server(server_options);
  std::string error;
  if (!server.Start(&error)) {
    ledger.Fail("server: " + error);
    return;
  }
  auto wire_step = [&](const char* name, uint16_t port, uint32_t shards,
                       const std::string& prefix,
                       const varstream::TrackerSnapshot& want) {
    int rep = 0;
    return ledger.MedianNs(name, nullptr, [&](size_t span) {
      varstream::SnapshotFrame got;
      std::string err;
      const varstream::HelloFrame hello =
          MakeHello(prefix + std::to_string(rep++), shards, kLadderSeed);
      if (!PushAll(port, hello, in, &ledger.spans(), span, &got, &err))
        ledger.Fail(std::string(name) + ": " + err);
      else if (!SameSnapshot(got, want))
        ledger.Fail(std::string(name) + ": snapshot differs from in-process");
    });
  };
  ladder.push_back(wire_step("ladder.5.service", server.port(), 0, "serial-",
                             serial_want));
  auto sharded = Sharded(2);
  for (size_t i = 0; i < in.frames(); ++i) sharded->PushBatch(in.Frame(i));
  ladder.push_back(wire_step("ladder.6.sharded", server.port(), 2, "sharded-",
                             sharded->Snapshot()));

  // history + obs on the serial session of step 5, whose retained rows
  // cover the whole stream.
  WireConn reader;
  if (!reader.Connect(server.port(), &error)) {
    ledger.Fail("reader: " + error);
    return;
  }
  size_t rows = 0;
  const double range_us = MedianRttUs(
      &reader, FrameType::kQueryRange,
      varstream::EncodeQueryRange(MakeHistoryQuery("serial-0")),
      FrameType::kQueryRangeResult, 200, &ledger.spans(), "history.query_range",
      [&](const FrameView& reply) {
        varstream::QueryRangeResultFrame result;
        if (varstream::DecodeQueryRangeResult(reply.payload, &result) &&
            !result.sessions.empty())
          rows = result.sessions[0].rows.size();
      },
      &error);
  m.Set("history.query_range_us", range_us, "us", 200);
  m.Set("history.rows_per_query", static_cast<double>(rows), "count", 200);
  const double dump_us = MedianRttUs(
      &reader, FrameType::kMetricsDump, varstream::EncodeMetricsDump({}),
      FrameType::kMetricsDumpResult, 200, &ledger.spans(), "obs.metrics_dump",
      nullptr, &error);
  m.Set("obs.metrics_dump_us", dump_us, "us", 200);
  if (range_us < 0 || dump_us < 0) ledger.Fail("reader: " + error);
  reader.Close();
  server.Stop();

  varstream::InProcessLauncher launcher(dir);
  varstream::RootOptions root_options;
  root_options.num_leaves = 2;
  root_options.checkpoint_every = 1u << 18;  // as tree-walk's root
  varstream::RootAggregator root(root_options, &launcher);
  if (!root.Start(&error)) {
    ledger.Fail("root: " + error);
    return;
  }
  auto one_shard = Sharded(1);
  for (size_t i = 0; i < in.frames(); ++i) one_shard->PushBatch(in.Frame(i));
  ladder.push_back(wire_step("ladder.7.root_hop", root.port(), 1, "tree-",
                             one_shard->Snapshot()));
  WireConn client;
  if (!client.Connect(root.port(), &error) ||
      !client.Hello(MakeHello("tree-0", 1, kLadderSeed), &error)) {
    ledger.Fail("root client: " + error);
    return;
  }
  const double splice_query_us =
      MedianRttUs(&client, FrameType::kQuery, {}, FrameType::kSnapshot, 50,
                  &ledger.spans(), "hierarchy.query", nullptr, &error);
  m.Set("hierarchy.query_splice_us", splice_query_us, "us", 50);
  varstream::MetricsSnapshot root_metrics;
  if (MedianRttUs(&client, FrameType::kMetricsDump,
                  varstream::EncodeMetricsDump({}),
                  FrameType::kMetricsDumpResult, 1, &ledger.spans(),
                  "hierarchy.metrics_dump",
                  [&](const FrameView& reply) {
                    std::string err;
                    if (!DecodeMetricsDump(reply.payload, /*merged=*/false,
                                           &root_metrics, &err))
                      ledger.Fail("root metrics: " + err);
                  },
                  &error) < 0) {
    ledger.Fail("root metrics: " + error);
  }
  const varstream::MetricPoint* leaf_ack = root_metrics.Find("leaf_ack_us");
  const varstream::MetricPoint* splice = root_metrics.Find("splice_us");
  m.Set("ladder.7_leaf_ack_p99_us",
        leaf_ack ? leaf_ack->hist.Percentile(0.99) : 0, "us",
        leaf_ack ? leaf_ack->hist.count() : 0);
  m.Set("ladder.7_splice_us", splice ? splice->hist.Percentile(0.5) : 0, "us",
        splice ? splice->hist.count() : 0);
  client.Close();
  root.Stop();

  static const char* kSteps[] = {
      "1_apply",       "2_encode",        "3_crc",        "4_view_decode",
      "5_service",     "6_sharded_demux", "7_root_hop"};
  static const char* kLabels[] = {
      "in-process apply (serial)", "+encode (step 3 less its CRC)",
      "+CRC (AppendPushBatchFrame)", "+view decode/validate",
      "+loopback service (workers=1)", "+sharded demux (shards=2)",
      "+root hop (2 in-process leaves)"};
  std::printf("ladder on bulk-walk seed %llu, %zu updates, %zu-update frames "
              "(median of %d):\n",
              static_cast<unsigned long long>(kLadderSeed), in.updates.size(),
              in.frame, kReps);
  for (size_t i = 0; i < ladder.size(); ++i) {
    std::printf("  %zu. %-34s %10.2f ns/update\n", i + 1, kLabels[i],
                ladder[i] / n);
    m.Set(std::string("ladder.") + kSteps[i] + "_ns_per_update", ladder[i] / n,
          "ns", kReps);
  }
  m.Set("service.ns_per_update_over_inprocess", (ladder[4] - ladder[0]) / n,
        "ns", kReps);
  m.Set("hierarchy.root_hop_ns_per_update", (ladder[6] - ladder[5]) / n, "ns",
        kReps);
}

int Main(int argc, char** argv) {
  varstream::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = flags.GetUint("seed", 1);
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "varbench_layers: --dir is required\n");
    return 2;
  }
  Ledger ledger(flags.GetString("spans", ""));
  if (workload == "sensor-trickle") {
    MeasureInProcess(ledger, TrickleInput(seed));
  } else if (workload == "bulk-walk" || workload == "tree-walk") {
    MeasureInProcess(ledger, WalkInput(seed));
  } else {
    std::fprintf(stderr, "varbench_layers: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  MeasureLadder(ledger, dir);
  return ledger.Finish();
}

}  // namespace
}  // namespace varbench

int main(int argc, char** argv) { return varbench::Main(argc, argv); }
