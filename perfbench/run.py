"""Wire-level benchmark of the served fix path (see README.md here).

Usage, from the repository root::

    python3 perfbench/run.py --workload tick --seed 1 --seconds 45 --trace 0

``--workload`` is ``tick`` or ``dense``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` spends
half of ``--seconds`` on an untraced server and half on a traced one
and reports the per-layer split (the difference is the tracing
overhead).  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any correctness check
fails.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run-time state (input pools, per-run server directories).
WORK = HERE / ".work"

#: Objects reporting on the durable workloads.
OBJECTS = 64
#: Fleet-sweep period of the ``tick`` workload.
TICK_S = 1.25
#: How long after the last due time missing frames are waited for.
DRAIN_TIMEOUT_S = 30.0
#: Timings are taken per window of this many seconds, and the run
#: reports their median.
WINDOW_S = 5.0
#: Server spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


#: Workload name -> venue (see README.md for the load shapes).
WORKLOADS = {"tick": "lab", "dense": "lobby3"}

#: Metric name -> unit, end-to-end (``--trace 0``).
END_TO_END = {
    "fix_p50_ms": "ms",
    "fix_p95_ms": "ms",
    "ack_p50_ms": "ms",
    "ack_p95_ms": "ms",
    "fixes_per_s": "1/s",
    "cpu_ms_per_fix": "ms",
    "error_mean_m": "m",
    "error_p90_m": "m",
    "setup_s": "s",
    "rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Host and process probes (/proc)
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, all threads."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def host_cpu_ticks(cpu: int) -> tuple[int, int]:
    """``(steal, total)`` jiffies of one CPU from ``/proc/stat``."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(prefix):
                fields = [int(v) for v in line.split()[1:9]]
                return fields[7], sum(fields)
    raise RuntimeError(f"no {prefix.strip()} line in /proc/stat")


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One fresh server process in its own fresh directory, on one CPU."""

    def __init__(self, venue: str, trace: bool, first_request: bytes,
                 cpu: int):
        self.cpu = cpu
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK / "runs"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self._stderr = open(self.dir / "stderr.log", "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--venue", venue, "--dir", str(self.dir),
                "--trace", "1" if trace else "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            self.port = self._await_port(timeout_s=120.0)
            reply = first_answer(self.port, first_request)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        if reply.get("degraded") is not False:
            self.close()
            raise RuntimeError(f"first request not answered: {reply}")

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith("listening "):
                    return int(line.split()[1])
                if not line:
                    break
        raise RuntimeError(
            "server did not start: "
            + (self.dir / "stderr.log").read_text()[-2000:]
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain, span flush) and wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}: "
                + (self.dir / "stderr.log").read_text()[-2000:]
            )

    def close(self) -> None:
        """Kill if still running, and delete the run directory."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def first_answer(port: int, request: bytes) -> dict:
    """Blocking request/response on a fresh connection (setup probe)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed before the reply")
            data += chunk
        head, body = data.split(b"\r\n\r\n", 1)
        length = 0
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed mid-reply")
            body += chunk
    return json.loads(body)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def locate_request(entry: dict, query_id: str) -> bytes:
    from loadgen import http_request

    payload = {"v": 1, "query_id": query_id, "anchors": entry["anchors"]}
    if entry["gate"] is not None:
        payload["gate"] = entry["gate"]
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return http_request("/v1/locate", body.encode())


def schedule(seconds: float, pool: list[dict]) -> list:
    """The ``tick`` operations of one run, in due order: every object at
    the start of every sweep."""
    from loadgen import Op, http_request

    rounds = max(1, math.ceil(seconds / TICK_S))
    ops = []
    for r, k in itertools.product(range(rounds), range(OBJECTS)):
        index = (r * OBJECTS + k) % len(pool)
        entry = pool[index]
        batch_id = f"tick-{r:04d}-{k:02d}"
        payload = {
            "v": 1,
            "batch_id": batch_id,
            "object_id": object_id(k),
            "anchors": entry["anchors"],
            "wait": False,
        }
        if entry["gate"] is not None:
            payload["gate"] = entry["gate"]
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        ops.append(
            Op(batch_id, object_id(k), index, r * TICK_S,
               http_request("/v1/measurements", body.encode()))
        )
    return ops


def object_id(k: int) -> str:
    return f"obj-{k:02d}"


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Everything one server's measured phase produced.

    Times in ``fixes`` and ``samples`` are seconds from the load start.
    """

    attempted: int
    failures: list[str]
    #: (due or send time, fix latency s, ack latency s, fix key) per fix
    fixes: list
    answers: dict  # pool index -> (x, y) of its first wire answer
    mismatches: int
    #: (time, server CPU s, host steal jiffies, host total jiffies)
    samples: list
    late_s: list
    rss_mb: float
    frames: list
    load_s: float  # length of the load schedule
    delivered_s: float  # load start to the last fix
    origin: float  # perf_counter at the load start (shared with the server)

    @property
    def fix_latency(self) -> dict:
        return {key: fix for _, fix, _, key in self.fixes}

    @property
    def cpu_s(self) -> float:
        return self.samples[-1][1] - self.samples[0][1]

    @property
    def wall_s(self) -> float:
        return self.samples[-1][0] - self.samples[0][0]

    @property
    def steal_share(self) -> float:
        steal = self.samples[-1][2] - self.samples[0][2]
        return steal / max(1, self.samples[-1][3] - self.samples[0][3])


def run_phase(workload: str, pool: list[dict], seconds: float,
              server: Server) -> Phase:
    from loadgen import closed_loop, open_loop
    from stats import due_latencies, match_frames

    failures: list[str] = []
    answers: dict[int, tuple[float, float]] = {}
    mismatches = 0
    raw_samples: list[tuple[float, float, int, int]] = []

    def sample() -> None:
        raw_samples.append(
            (time.perf_counter(), proc_cpu_s(server.pid),
             *host_cpu_ticks(server.cpu))
        )

    def answer(index: int, position: dict) -> None:
        nonlocal mismatches
        got = (position["x"], position["y"])
        if got != tuple(pool[index]["ref"]):
            mismatches += 1
        answers.setdefault(index, got)

    def relative(start: float) -> list:
        return [(t - start, *rest) for t, *rest in raw_samples]

    if workload == "dense":
        # Query ids are spliced into pre-encoded requests, so the loop
        # spends no time on JSON between two queries.
        templates = [
            locate_request(entry, "q000000").split(b"q000000")
            for entry in pool
        ]

        def make(i: int) -> tuple[int, bytes]:
            index = i % len(pool)
            head, tail = templates[index]
            return index, head + f"q{i:06d}".encode() + tail

        run = asyncio.run(
            closed_loop("127.0.0.1", server.port, make, seconds, sample)
        )
        fixes = []
        for i, (index, sent, lat, status, body) in enumerate(run.queries):
            if status != 200 or body.get("degraded") is not False:
                failures.append(f"q{i:06d}: status {status}, {body}")
                continue
            fixes.append((sent - run.start, lat, lat, f"q{i:06d}"))
            answer(index, body["position"])
        return Phase(
            attempted=len(run.queries), failures=failures, fixes=fixes,
            answers=answers, mismatches=mismatches,
            samples=relative(run.start), late_s=[],
            rss_mb=proc_peak_rss_mb(server.pid), frames=[],
            load_s=seconds, delivered_s=run.end - run.start,
            origin=run.start,
        )

    ops = schedule(seconds, pool)
    run = asyncio.run(
        open_loop(
            "127.0.0.1", server.port, ops,
            [object_id(k) for k in range(OBJECTS)],
            DRAIN_TIMEOUT_S, sample,
        )
    )
    counts, track_arrival = match_frames(run.frames)
    acked = {op.batch_id: op for op in ops if op.ack_ok}
    for op in ops:
        if not op.ack_ok:
            failures.append(f"{op.batch_id}: not acked")
        elif counts.get(op.batch_id) != [1, 1]:
            failures.append(
                f"{op.batch_id}: position/track frames "
                f"{counts.get(op.batch_id, [0, 0])}, want [1, 1]"
            )
    if None in counts:
        failures.append(f"{counts[None][1]} track frames matched no batch")
    stray = set(counts) - set(acked) - {None}
    if stray:
        failures.append(f"{len(stray)} frames for batches never acked")
    latency = due_latencies(
        {b: op.due for b, op in acked.items()}, track_arrival
    )
    fixes = [
        (op.due_s, latency[b], op.acked - op.due, b)
        for b, op in acked.items()
        if b in latency
    ]
    for frame in run.frames:
        if frame["type"] == "position" and frame["batch_id"] in acked:
            if frame.get("degraded") is not False:
                failures.append(f"{frame['batch_id']}: degraded answer")
            answer(acked[frame["batch_id"]].pool_index, frame["position"])
    last = max(track_arrival.values(), default=run.end)
    return Phase(
        attempted=len(ops), failures=failures, fixes=fixes,
        answers=answers, mismatches=mismatches,
        samples=relative(run.start),
        late_s=[op.sent - op.due for op in ops if op.sent],
        rss_mb=proc_peak_rss_mb(server.pid), frames=run.frames,
        load_s=seconds,
        delivered_s=last - run.start,
        origin=run.start,
    )


def errors_m(pool: list[dict], answers: dict) -> list[float]:
    """Raw wire fix error against ground truth, one per pool entry."""
    return [
        math.hypot(x - pool[i]["truth"][0], y - pool[i]["truth"][1])
        for i, (x, y) in sorted(answers.items())
    ]


# ----------------------------------------------------------------------
# Per-layer split (traced phase)
# ----------------------------------------------------------------------
def layer_of(name: str) -> str | None:
    """The layer a span's self time belongs to (None: its parent's)."""
    if name == "gateway.request":  # its self time is the bridge wait
        return "bridge.wait"
    if name.startswith(("cluster.", "gateway.solve")):
        return "cluster"
    if name.startswith("serve."):
        return "serving"
    if name.startswith("constraints."):
        return "constraints"
    if name.startswith("lp."):
        return "lp"
    if name in ("merge", "ledger.record_batch", "ledger.record_estimate",
                "protocol.decode", "protocol.encode"):
        return name
    if name.startswith("sessions."):
        return "sessions"
    if name.startswith("journal."):
        return "journal"
    return None


def per_layer(phase: Phase, untraced: Phase, server_dir: Path) -> dict:
    from stats import layer_split, percentile, unattributed

    spans = [
        json.loads(line)
        for line in (server_dir / "spans.jsonl").read_text().splitlines()
        if line
    ]
    report = json.loads((server_dir / "report.json").read_text())
    names = {sp["name"] for sp in spans}
    mapping = {n: layer for n in names if (layer := layer_of(n)) is not None}
    split, total, first = layer_split(
        spans, mapping, key_attrs=("key", "query_id")
    )
    # Before its first span the server had not touched the fix: it sat
    # in the connection behind earlier requests, in transit, or in HTTP
    # parsing.  Perf-counter time is one clock across the two processes.
    for t, _, _, key in phase.fixes:
        if key in split:
            split[key]["gateway.inbound"] = first[key] - (phase.origin + t)
            total[key] += split[key]["gateway.inbound"]
    latency = phase.fix_latency
    fixes = [k for k in latency if k in split]
    n = max(1, len(fixes))

    def mean_ms(*layers: str) -> float:
        return 1e3 * sum(
            split[k].get(layer, 0.0) for k in fixes for layer in layers
        ) / n

    def count(name_pred, counter=None) -> float:
        return sum(
            (sp["counters"].get(counter, 0.0) if counter else 1.0)
            for sp in spans
            if name_pred(sp["name"])
        )

    queue_waits = [
        sp["attributes"].get("queue_wait_s", 0.0)
        for sp in spans if sp["name"] == "serve.query"
    ]
    caches = report["caches"]

    def ratio(cache: dict) -> float:
        lookups = cache["hits"] + cache["misses"]
        return cache["hits"] / lookups if lookups else 0.0

    kinds = [f["type"] for f in phase.frames]
    lag = report["loop_lag_s"]
    cpu_traced = phase.cpu_s / max(1, len(phase.fixes))
    cpu_plain = untraced.cpu_s / max(1, len(untraced.fixes))
    residual = unattributed(latency, total)
    metrics = {
        "gateway.inbound_wait_ms": (mean_ms("gateway.inbound"), "ms"),
        "bridge.requests_per_solve_call": (
            report["cluster_requests"] / max(1, report["cluster_calls"]),
            "count",
        ),
        "bridge.wait_ms": (mean_ms("bridge.wait"), "ms"),
        "bridge.ledger_wait_ms": (
            mean_ms("ledger.record_batch.wait", "ledger.record_estimate.wait"),
            "ms",
        ),
        "ledger.record_batch_ms": (mean_ms("ledger.record_batch"), "ms"),
        "ledger.record_estimate_ms": (mean_ms("ledger.record_estimate"), "ms"),
        "durable.commits_per_fix": (
            count(lambda s: s == "wal.write") / max(1, len(phase.fixes)), "count"
        ),
        "sessions.ingest_ms": (mean_ms("sessions"), "ms"),
        "journal.append_ms": (mean_ms("journal"), "ms"),
        "sessions.events_per_fix": (
            kinds.count("session-event") / max(1, len(phase.fixes)), "count"
        ),
        "gateway.loop_lag_p95_ms": (
            1e3 * percentile(lag, 95.0) if lag else 0.0, "ms"
        ),
        "protocol.decode_ms": (mean_ms("protocol.decode"), "ms"),
        "protocol.encode_ms": (mean_ms("protocol.encode"), "ms"),
        "ws.frames_per_fix": (len(kinds) / max(1, len(phase.fixes)), "count"),
        "cluster.self_ms": (mean_ms("cluster"), "ms"),
        "serving.self_ms": (mean_ms("serving"), "ms"),
        "serving.queue_wait_ms": (
            1e3 * sum(queue_waits) / max(1, len(queue_waits)), "ms"
        ),
        "serving.topology_hit_ratio": (ratio(caches["topology_cache"]), "ratio"),
        "serving.bisector_hit_ratio": (ratio(caches["bisector_cache"]), "ratio"),
        "constraints.ms": (mean_ms("constraints"), "ms"),
        "lp.ms": (mean_ms("lp"), "ms"),
        "merge.ms": (mean_ms("merge"), "ms"),
        "lp.pivots_per_fix": (
            count(lambda s: True, "simplex.pivots") / max(1, len(phase.fixes)),
            "count",
        ),
        "lp.rows_per_fix": (
            count(lambda s: s.startswith("lp."), "rows") / max(1, len(phase.fixes)),
            "count",
        ),
        "unattributed_ms": (
            1e3 * sum(residual) / max(1, len(residual)), "ms"
        ),
        "trace.overhead_pct": (100.0 * (cpu_traced / cpu_plain - 1.0), "%"),
        "loadgen.late_p95_ms": (
            1e3 * percentile(phase.late_s, 95.0) if phase.late_s else 0.0, "ms"
        ),
        "server.cpu_util": (phase.cpu_s / phase.wall_s, "ratio"),
        "host.steal_pct": (100.0 * phase.steal_share, "%"),
    }
    traced_mean = 1e3 * sum(latency[k] for k in fixes) / n
    # A tracer cost that grew with the run would show as drift here.
    due = {key: t for t, _, _, key in phase.fixes}
    edges = []
    for inside in (lambda t: t < WINDOW_S,
                   lambda t: t >= phase.load_s - WINDOW_S):
        part = [latency[k] - total[k] for k in fixes if inside(due[k])]
        edges.append(1e3 * sum(part) / max(1, len(part)))
    print(
        f"  unattributed_ms in the first {WINDOW_S:g} s {edges[0]:.3f},"
        f" in the last {WINDOW_S:g} s {edges[1]:.3f}"
    )
    print(
        f"  traced split over {len(fixes)} fixes: mean fix {traced_mean:.3f} ms"
        f" = layers {traced_mean - metrics['unattributed_ms'][0]:.3f} ms"
        f" + unattributed {metrics['unattributed_ms'][0]:.3f} ms;"
        f" {len(spans)} spans"
    )
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def timings(phase: Phase) -> dict:
    """Latency and CPU figures as the median over the run's windows."""
    from statistics import median

    from stats import summarize, windows

    cpu = [(t, cpu_s) for t, cpu_s, _, _ in phase.samples]
    rows = []
    for w in windows(phase.fixes, cpu, WINDOW_S, phase.load_s):
        fix, ack = summarize(w["fix"]), summarize(w["ack"])
        rows.append({
            "n": fix["n"],
            "fix_p50_ms": 1e3 * fix["p50"],
            "fix_p95_ms": 1e3 * fix["p95"],
            "ack_p50_ms": 1e3 * ack["p50"],
            "ack_p95_ms": 1e3 * ack["p95"],
            "cpu_ms_per_fix": 1e3 * w["cpu_s"] / max(1, fix["n"]),
        })
    names = [name for name in rows[0] if name != "n"]
    for name in names:
        print(f"  windows {name}: " + " ".join(f"{r[name]:.3f}" for r in rows))
    print(
        f"  {len(phase.fixes)} fixes in {len(rows)} windows of {WINDOW_S:g} s"
        f" (n per window: {' '.join(str(r['n']) for r in rows)})"
    )
    return {name: median(r[name] for r in rows) for name in names}


def end_to_end(phase: Phase, errors: list[float], setup: list[float]) -> dict:
    from stats import percentile, summarize

    out = timings(phase)
    print(
        f"  error over {len(errors)} distinct inputs, setup over "
        f"{len(setup)} spawns"
    )
    out.update({
        "fixes_per_s": len(phase.fixes) / phase.delivered_s,
        "error_mean_m": summarize(errors)["mean"],
        "error_p90_m": percentile(errors, 90.0) if errors else math.nan,
        "setup_s": percentile(setup, 50.0),
        "rss_mb": phase.rss_mb,
    })
    return out


def diagnostics(label: str, phase: Phase) -> None:
    from stats import percentile

    late = 1e3 * percentile(phase.late_s, 95.0) if phase.late_s else 0.0
    print(
        f"  [{label}] diagnostics: loadgen late p95 {late:.3f} ms, host steal "
        f"{100.0 * phase.steal_share:.2f}%, server cpu util "
        f"{phase.cpu_s / phase.wall_s:.3f} over {phase.wall_s:.2f} s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated benchmark still runs its cleanup (servers, run dirs).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The generator on one CPU, every server on another (the same one
    # when only one is allowed).  The GIL-bound server uses about one
    # CPU; keeping all of its threads on one CPU means a hand-off
    # between its loop and its executor never waits for a second
    # virtual CPU the host has descheduled, which otherwise multiplies
    # host steal into latency, and the generator's own work stays out
    # of the server's latencies.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    server_cpu = max(allowed)
    sys.path[:0] = [str(SRC), str(HERE)]
    from inputs import load_pool

    workload, venue = args.workload, WORKLOADS[args.workload]
    pool = load_pool(venue, args.seed, WORK / "inputs", SRC)
    first = locate_request(pool[0], "setup")
    print(f"workload {workload} ({venue}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, pool {len(pool)} inputs")

    phases: list[Phase] = []
    setup: list[float] = []
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        servers = []
        try:
            for _ in range(SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                servers.append(Server(venue, False, first, server_cpu))
                setup.append(servers[-1].setup_s)
            phases.append(
                run_phase(workload, pool, args.seconds, servers[-1])
            )
            servers[-1].stop()
        finally:
            for server in servers:
                server.close()
        diagnostics("untraced", phases[0])
    else:
        half = args.seconds / 2.0
        for traced in (False, True):
            server = Server(venue, traced, first, server_cpu)
            try:
                phases.append(run_phase(workload, pool, half, server))
                server.stop()
                diagnostics("traced" if traced else "untraced", phases[-1])
                if traced:
                    metrics = per_layer(phases[1], phases[0], server.dir)
            finally:
                server.close()

    failures = [f for phase in phases for f in phase.failures]
    mismatches = sum(phase.mismatches for phase in phases)
    if mismatches:
        failures.append(
            f"{mismatches} wire answers differ from the in-process service"
        )
    if args.trace == 0:
        errors = errors_m(pool, phases[0].answers)
        e2e = end_to_end(phases[0], errors, setup)
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.attempted - len(phase.fixes) for phase in phases)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for line in failures[:20]:
        print(f"  FAIL {line}")
    correct = not failures
    print(f"  {attempted} attempted, {failed} failed, "
          f"{'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
