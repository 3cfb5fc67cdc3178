#!/usr/bin/env python3
"""The varstream benchmark: one command per run.

    python3 varbench/run.py --workload bulk-walk --seed 1 --seconds 10 --trace 0

Builds varstream_serve, varstream_root and the benchmark's own programs
from the checkout's sources (Release, into .bench_build/), starts the
system under test on loopback, drives it with varbench_gen, checks every
answer, and prints each metric with its unit and sample count. The last
stdout line is one JSON object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists under
"end_to_end"; --trace 1 reports the "per_layer" ones (a traced generator
run plus the in-process layer ledger, varbench_layers). Every run also
writes its full record, with a provenance block, to
.bench_build/results/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "varbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
# Set-up is timed this many times before the run (the last start serves
# the run) and as many again after it, so one host stall cannot move the
# median of the lot.
SETUP_LAUNCHES = 16

# Frame types of the varstream wire protocol (src/service/protocol.h).
SHUTDOWN, SHUTDOWN_ACK, TOPOLOGY, TOPOLOGY_INFO = 9, 10, 16, 17

# The system under test per workload. tree-walk checkpoints every 2^18
# updates per session, which bounds the root's journal.
SYSTEMS = {
    "bulk-walk": lambda b, d: [b("varstream_serve"), "--port=0", "--workers=1"],
    "sensor-trickle": lambda b, d: [b("varstream_serve"), "--port=0",
                                    "--workers=2"],
    "tree-walk": lambda b, d: [b("varstream_root"), "--port=0",
                               "--serve=" + b("varstream_serve"),
                               "--dir=" + d, "--leaves=2",
                               "--checkpoint-every=262144"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds into .bench_build; refuses Debug builds."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=840)
    info = cmake_cache()
    if info.get("CMAKE_BUILD_TYPE", "") not in ("Release", "RelWithDebInfo"):
        raise SystemExit("varbench: refusing a %r build"
                         % info.get("CMAKE_BUILD_TYPE", ""))
    return info


def cmake_cache():
    info = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                info[key.split(":", 1)[0]] = value
    return info


def binary(name):
    return os.path.join(BUILD_DIR, name)


def frame(ftype, payload=b""):
    body = bytes([ftype]) + payload
    return (struct.pack("<I", len(payload)) + body
            + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def round_trip(port, ftype, want):
    """Sends one empty-payload frame and waits for a reply of type want."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(frame(ftype))
        data = b""
        while len(data) < 5 or len(data) < 9 + struct.unpack(
                "<I", data[:4])[0]:
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed before reply")
            data += chunk
        if data[4] != want:
            raise RuntimeError("unexpected reply type %d" % data[4])


class System:
    """One launched varstream_serve or varstream_root (with its leaves)."""

    def __init__(self, argv, leaves):
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True, cwd=BUILD_DIR)
        self.leaf_pids = []
        self._drain = None
        try:
            self.port, self.leaf_pids = self._read_ready(leaves)
            round_trip(self.port, TOPOLOGY, TOPOLOGY_INFO)
        except BaseException:
            self._kill()
            raise
        self.setup_s = time.perf_counter() - start
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()

    def _read_ready(self, leaves):
        fd = self.proc.stdout.fileno()
        buf = b""
        port, pids = None, []
        deadline = time.monotonic() + 60
        while port is None or len(pids) < leaves:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("system did not start: %r" % buf[-2000:])
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                if line.startswith("listening on 127.0.0.1:"):
                    port = int(line.rsplit(":", 1)[1])
                elif line.startswith("leaf ") and " pid=" in line:
                    pid = int(line.rsplit("pid=", 1)[1])
                    if pid not in pids:
                        pids.append(pid)
        return port, pids

    def _drain_output(self):
        """Keeps the pipe empty so the system never blocks on stdout."""
        while self.proc.stdout.read1(65536):
            pass

    @property
    def pids(self):
        return [self.proc.pid] + self.leaf_pids

    def peak_rss_mb(self):
        total_kb = 0
        for pid in self.pids:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self):
        """Graceful Shutdown (which also stops a root's leaves), then a
        SIGKILL of the whole process group for anything left over."""
        try:
            round_trip(self.port, SHUTDOWN, SHUTDOWN_ACK)
            self.proc.wait(timeout=20)
        except Exception:  # noqa: BLE001 - fall through to the hard stop
            pass
        self._kill()

    def _kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for pid in self.leaf_pids:  # leaves are the root's children
            while os.path.exists("/proc/%d" % pid):
                try:
                    with open("/proc/%d/stat" % pid) as f:
                        if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                            break
                except OSError:
                    break
                time.sleep(0.01)
        if self._drain is not None:
            self._drain.join(timeout=5)


def launch(workload, work_dir, count, keep):
    """Starts the system `count` times, timing each from spawn to a first
    answered Topology. Returns the last one still running if `keep`."""
    argv = SYSTEMS[workload](binary, work_dir)
    leaves = 2 if workload == "tree-walk" else 0
    times = []
    for i in range(count):
        system = System(argv, leaves)
        times.append(system.setup_s)
        if not keep or i + 1 < count:
            system.stop()
    return (system if keep else None), times


def run_program(argv, timeout):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=timeout, cwd=BUILD_DIR)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed with code %d"
                           % (os.path.basename(argv[0]), proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def compiler_version(path):
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10, check=True).stdout
        return out.splitlines()[0]
    except Exception:  # noqa: BLE001 - provenance is best effort
        return path


def provenance(cache, seed):
    commit = "unknown (not a git checkout)"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except Exception:  # noqa: BLE001 - a source export has no .git
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": compiler_version(cache.get("CMAKE_CXX_COMPILER", "c++")),
        "commit": commit,
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SYSTEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    with open(os.path.join(BENCH_DIR, "layer_map.json")) as f:
        layer_map = json.load(f)

    cache = build()
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(results_dir, tag + ".spans.jsonl")
    work_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    system = None
    try:
        system, setup_times = launch(args.workload, work_dir,
                                     SETUP_LAUNCHES, keep=True)
        _, gen = run_program(
            [binary("varbench_gen"), "--workload=" + args.workload,
             "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
             "--port=%d" % system.port,
             "--pids=" + ",".join(str(p) for p in system.pids),
             "--trace=%d" % args.trace, "--spans=" + spans_path], 110)
        peak_rss = system.peak_rss_mb()
        system.stop()
        system = None
        setup_times += launch(args.workload, work_dir, SETUP_LAUNCHES,
                              keep=False)[1]

        metrics = dict(gen["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setup_times),
                              "unit": "s", "samples": len(setup_times)}
        metrics["peak_rss_mb"] = {"value": peak_rss, "unit": "MB",
                                  "samples": 1}
        attempted, failed = gen["attempted"], gen["failed"]
        metrics["failed_ops_ratio"] = {
            "value": failed / attempted if attempted else 1.0,
            "unit": "ratio", "samples": attempted}
        # An open loop that lost its schedule is marked invalid, not
        # incorrect: its outputs were still checked and right.
        correct = gen["correct"]
        notes = list(gen["errors"])
        if args.trace:
            metrics.update(gen["per_layer"])
            ladder_lines, ledger = run_program(
                [binary("varbench_layers"), "--workload=" + args.workload,
                 "--seed=%d" % args.seed, "--dir=" + work_dir,
                 "--spans=" + spans_path.replace(".spans", ".ledger-spans")],
                50)
            for line in ladder_lines:
                print(line)
            metrics.update(ledger["metrics"])
            correct = correct and ledger["correct"]
            notes += ledger.get("errors", [])
    finally:
        if system is not None:
            system.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit("varbench: run did not measure %s" % ", ".join(missing))
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(cache, args.seed),
              "why": {w["name"]: w["why"] for w in spec["workloads"]},
              "layer_map": layer_map, "correct": correct,
              "valid": gen["valid"], "notes": notes,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("provenance: " + json.dumps(record["provenance"]))
    print("valid: %s" % ("yes" if gen["valid"] else "NO (see notes)"))
    for note in notes:
        print("note: " + note)
    for name in sorted(metrics):
        m = metrics[name]
        print("%-40s %16.6g %-8s n=%d" % (name, m["value"], m["unit"],
                                         m.get("samples", 1)))
    out = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Exception, subprocess.SubprocessError) as e:  # noqa: BLE001
        log("varbench: %s" % e)
        sys.exit(1)
