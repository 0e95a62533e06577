"""GATEWAY — the network edge: wire bit-exactness, concurrency, durability.

Three claims of the ``repro.gateway`` subsystem, benchmarked:

* **Wire bit-exactness** — estimates served over a real TCP socket
  (HTTP parse → protocol decode → thread-offloaded cluster solve →
  JSON encode) equal calling :class:`repro.serving.LocalizationService`
  in-process, float for float.
* **Concurrency** — a closed-loop load campaign over ≥ 64 concurrent
  keep-alive connections sustains the solver-bound throughput with
  bounded tail latency (sustained QPS, p50/p95 recorded).
* **Ingest durability** — a gateway subprocess is SIGKILLed mid-load;
  after a restart on the same WAL ledger, **every batch the clients
  had an acknowledgement for is answered** (zero acked-but-lost
  measurements), and the restarted gateway then drains cleanly on
  SIGTERM.

Sustained QPS, latency quantiles, and the kill-drill ledger accounting
are persisted to ``benchmarks/results/BENCH_gateway.json`` (and
``GATEWAY.txt``).
"""

import asyncio
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np

from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import format_table
from repro.gateway import (
    AsyncGatewayClient,
    GatewayConfig,
    GatewayServer,
    LoadGenConfig,
    MeasurementLedger,
    run_loadgen,
)
from repro.serving import LocalizationRequest, LocalizationService

from conftest import run_once

QUERIES = 8  # bit-exactness round trips
PACKETS = 4
CONNECTIONS = 64  # the acceptance floor for concurrent connections
LOAD_S = 3.0  # sustained-load campaign length
KILL_AFTER_S = 1.5  # SIGKILL lands this far into the durability campaign
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def _gather_queries():
    scenario = get_scenario("lab")
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
    sets = []
    for i in range(QUERIES):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([13, i]))
        sets.append(tuple(system.gather_anchors(site, rng)))
    return scenario, sets


# ----------------------------------------------------------------------
# Phases A+B: in-process server, real sockets
# ----------------------------------------------------------------------

def _run_socket_phases(scenario, anchor_sets, db_path):
    """Bit-exactness round trips, then the 64-connection campaign."""
    with LocalizationService(scenario.plan.boundary) as direct:
        reference = [
            direct.locate_request(LocalizationRequest(a, query_id=f"q{i}"))
            for i, a in enumerate(anchor_sets)
        ]

    async def drive():
        config = GatewayConfig(port=0, db_path=str(db_path))
        async with GatewayServer(scenario.plan.boundary, config=config) as srv:
            async with AsyncGatewayClient(srv.host, srv.port) as client:
                wire = []
                for i, anchors in enumerate(anchor_sets):
                    ack = await client.submit_batch(
                        f"q{i}", anchors, object_id="bench", wait=True
                    )
                    wire.append(ack["estimate"])
            report = await run_loadgen(
                srv.host,
                srv.port,
                anchor_sets,
                LoadGenConfig(
                    connections=CONNECTIONS,
                    duration_s=LOAD_S,
                    mode="locate",
                ),
            )
            return wire, report

    wire, report = asyncio.run(drive())
    mismatches = sum(
        1
        for w, ref in zip(wire, reference)
        if (w["position"]["x"], w["position"]["y"])
        != (ref.position.x, ref.position.y)
    )
    return {
        "reference": reference,
        "wire": wire,
        "mismatches": mismatches,
        "load": report.summary(),
    }


# ----------------------------------------------------------------------
# Phase C: subprocess kill drill
# ----------------------------------------------------------------------

def _spawn_gateway(db_path):
    """Launch ``repro gateway`` and wait for its bound port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "gateway", "lab",
            "--port", "0", "--db", str(db_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    while True:
        line = proc.stdout.readline()
        if "listening on http://" in line:
            port = int(line.split("listening on http://", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            return proc, port
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"gateway never came up: {line!r}")


def _run_kill_drill(anchor_sets, db_path):
    """SIGKILL a loaded gateway; restart must answer every acked batch."""
    proc, port = _spawn_gateway(db_path)

    async def load_and_kill():
        campaign = asyncio.ensure_future(
            run_loadgen(
                "127.0.0.1",
                port,
                anchor_sets,
                LoadGenConfig(
                    connections=16,
                    duration_s=KILL_AFTER_S + 20.0,
                    mode="measurements",
                    batch_prefix="kill-drill",
                ),
            )
        )
        await asyncio.sleep(KILL_AFTER_S)
        proc.kill()  # SIGKILL: no drain, no checkpoint, no goodbye
        return await campaign  # connections die; acked work is recorded

    report = asyncio.run(load_and_kill())
    proc.wait(timeout=30)
    acked = list(report.acked_batch_ids)

    # The restart: same ledger, replay the backlog before serving.
    proc2, port2 = _spawn_gateway(db_path)
    try:

        async def audit():
            async with AsyncGatewayClient("127.0.0.1", port2) as client:
                lost = [
                    batch_id
                    for batch_id in acked
                    if (await client.get_estimate(batch_id))["status"]
                    != "answered"
                ]
                metrics = await client.metrics()
                return lost, metrics["gateway"]["replayed_on_start"]

        lost, replayed = asyncio.run(audit())
        proc2.send_signal(signal.SIGTERM)
        out, _ = proc2.communicate(timeout=60)
    finally:
        if proc2.poll() is None:
            proc2.kill()
    with MeasurementLedger(db_path) as ledger:
        counts = ledger.counts()
    return {
        "acked": len(acked),
        "completed_before_kill": report.completed,
        "lost": lost,
        "replayed_on_start": replayed,
        "ledger_counts": counts,
        "clean_drain": "gateway drained cleanly" in out,
        "exit_code": proc2.returncode,
    }


def _gateway_campaign(tmp_dir):
    scenario, anchor_sets = _gather_queries()
    socket_phases = _run_socket_phases(
        scenario, anchor_sets, tmp_dir / "bench_gateway.db"
    )
    drill = _run_kill_drill(anchor_sets, tmp_dir / "bench_kill.db")
    return socket_phases, drill


def test_gateway_wire_exactness_concurrency_durability(
    benchmark, save_result, save_json, tmp_path
):
    socket_phases, drill = run_once(benchmark, _gateway_campaign, tmp_path)

    # Phase A acceptance: the socket changes nothing about the answer.
    assert socket_phases["mismatches"] == 0, (
        f"{socket_phases['mismatches']} wire answers diverged from the "
        "in-process service"
    )

    # Phase B acceptance: the campaign genuinely ran 64-wide and the
    # closed loop sustained it without errors.
    load = socket_phases["load"]
    assert load["errors"] == 0
    assert load["completed"] >= CONNECTIONS, (
        "campaign too small to exercise the concurrency floor"
    )
    assert load["qps"] > 0

    # Phase C acceptance: zero acked-but-lost measurements, and the
    # restarted gateway drained cleanly on SIGTERM.
    assert drill["acked"] > 0, "kill drill acked nothing before the kill"
    assert not drill["lost"], (
        f"{len(drill['lost'])} acknowledged batches lost across the kill: "
        f"{drill['lost'][:5]}"
    )
    assert drill["ledger_counts"]["pending"] == 0
    assert drill["clean_drain"] and drill["exit_code"] == 0

    rows = [
        [
            "wire-exactness",
            f"{QUERIES} round trips",
            "-",
            "-",
            "-",
            f"{socket_phases['mismatches']} mismatches",
        ],
        [
            "sustained-load",
            f"{CONNECTIONS} conns x {LOAD_S:.0f}s",
            round(load["qps"], 1),
            round(load["latency_p50_ms"], 2),
            round(load["latency_p95_ms"], 2),
            f"{load['errors']} errors",
        ],
        [
            "kill-drill",
            f"SIGKILL@{KILL_AFTER_S:.1f}s",
            "-",
            "-",
            "-",
            f"{drill['acked']} acked, {len(drill['lost'])} lost, "
            f"{drill['replayed_on_start']} replayed",
        ],
    ]
    table = format_table(
        ["phase", "setup", "qps", "p50(ms)", "p95(ms)", "outcome"], rows
    )
    save_result("GATEWAY", table)
    save_json(
        "gateway",
        {
            "queries": QUERIES,
            "wire_bit_exact": socket_phases["mismatches"] == 0,
            "sustained_load": {
                "connections": CONNECTIONS,
                "duration_s": LOAD_S,
                **load,
            },
            "kill_drill": {
                "kill_after_s": KILL_AFTER_S,
                "acked": drill["acked"],
                "lost": len(drill["lost"]),
                "replayed_on_start": drill["replayed_on_start"],
                "ledger_counts": drill["ledger_counts"],
                "clean_drain": drill["clean_drain"],
            },
        },
    )
    print()
    print(table)
