"""The repository's benchmark: four workloads, measured from outside the program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every rep of a batch workload runs in a fresh child process (``child.py``)
against the checkout's ``src``; ``serve-mixed`` starts the CLI's ``serve``
entry point (through ``serve_launcher.py``) and drives it from a separate
load-generator process (``loadgen.py``).  ``speed.py`` explains why most
times are reported at probe speed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it name every metric with its unit, and a traced run prints
its stage table.  See ``README.md`` in this directory for the metrics and why
each workload exists.
"""
from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import harness
import speed
import tracer as tracer_module
from loadgen import LATENCY_LIMIT_MS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("build-census", "explore-ssync", "synth-cegis", "serve-mixed")
ALGORITHM = "shibata-visibility2"
CHILD_TIMEOUT_S = 170.0

#: Extra set-up-only children per untraced run, on top of each rep's own
#: set-up, so ``setup_s`` is a median of several start-ups.
EXTRA_SETUPS = {"build-census": 2, "explore-ssync": 2, "synth-cegis": 3, "serve-mixed": 4}

#: Rows per shard of the build-census store: five shards at n=8, so the
#: multi-shard paths run as they do at n=10.
SHARD_ROWS = 4096

#: ``algorithm.compute`` calls of one n=8 table build.
COMPUTE_CALLS_N8 = 12381

#: What every rep must compute (work-equality): identical on every rep,
#: traced or not.  ``compute_calls`` is the program's own
#: ``decision_cache.misses`` counter, which every table build bumps once per
#: ``algorithm.compute`` call.
EXPECTED_WORK = {
    "build-census": {"shapes": 16689, "compute_calls": COMPUTE_CALLS_N8},
    "explore-ssync": {"shapes": 16689, "compute_calls": COMPUTE_CALLS_N8,
                      "vertices": 16689, "edges": 42407},
    "synth-cegis": {"candidates": 309, "explores": 117},
}
SYNTH_RESULT = {"final_ok": 2652, "extend_rules": 7, "validated": True,
                "ruleset_sha256": "a1fd7d748d596ae8c036034d416c42cc2a1f68049b4bdbc25d9f71a2eb442926"}

R1, R2 = 150.0, 300.0
LADDER_CEILING = 4000.0

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

class Child:
    """A child process whose exit status and peak RSS come from ``wait4``."""

    def __init__(self, cmd: List[str], env: Dict[str, str], log_path: str) -> None:
        self.log = open(log_path, "wb")
        self.spawned_at = _clock()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.returncode: Optional[int] = None
        self.maxrss_kb = 0
        self.cpu_s = 0.0

    def wait(self, timeout: float) -> int:
        deadline = _clock() + timeout
        while self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
            elif _clock() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                self._reaped(status, usage)
                self.returncode = -9
            else:
                time.sleep(0.01)
        return self.returncode

    def _reaped(self, status: int, usage) -> None:
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.log.close()

    def kill(self) -> None:
        if self.returncode is None:
            self.proc.kill()
            self.wait(10.0)


def child_env(tmp: str, table_cache: Optional[str], trace_dir: Optional[str],
              probe_dir: Optional[str] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TABLE_CACHE", "REPRO_TABLE_SHARD_ROWS", speed.PROBE_DIR_ENV,
                        tracer_module.TRACE_DIR_ENV, "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    if table_cache is not None:
        env["REPRO_TABLE_CACHE"] = table_cache
        env["REPRO_TABLE_SHARD_ROWS"] = str(SHARD_ROWS)
    if trace_dir is not None:
        env[tracer_module.TRACE_DIR_ENV] = trace_dir
    if probe_dir is not None:
        env[speed.PROBE_DIR_ENV] = probe_dir
    return env


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro_tbl_*"))


def log_tail(path: str, limit: int = 800) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read()[-limit:].decode("utf-8", "replace")
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# Batch workloads.
# ---------------------------------------------------------------------------

def check_batch(workload: str, record: Dict) -> List[str]:
    """Correctness and work-equality problems of one rep's record."""
    from repro.analysis.census_pins import PINNED_CENSUS_N8

    out = record["outputs"]
    counters = record["counters"]
    problems = []
    work = {"compute_calls": counters.get("decision_cache.misses", 0)}
    if workload == "build-census":
        want = PINNED_CENSUS_N8[(ALGORITHM, "fsync")]
        if out["census"] != want:
            problems.append(f"n=8 FSYNC census {out['census']} != pinned {want}")
        work["shapes"] = out["rows"]
    elif workload == "explore-ssync":
        want = PINNED_CENSUS_N8[(ALGORITHM, "ssync")]
        if out["census"] != want:
            problems.append(f"n=8 SSYNC census {out['census']} != pinned {want}")
        work.update(shapes=out["roots"], vertices=out["vertices"], edges=out["edges"])
    else:
        work.update(candidates=out["candidates"], explores=out["explores"])
        for key, want in SYNTH_RESULT.items():
            if out[key] != want:
                problems.append(f"synth {key} {out[key]!r} != recorded {want!r}")
    for key, want in EXPECTED_WORK[workload].items():
        if work.get(key) != want:
            problems.append(f"work count {key}={work.get(key)} != expected {want}")
    record["work"] = work
    return problems


def run_batch_child(workload: str, work_dir: str, index: int, setup_only: bool,
                    trace_dir: Optional[str]) -> Tuple[Optional[Dict], List[str]]:
    rep_dir = os.path.join(work_dir, f"rep{index}")
    tmp = os.path.join(rep_dir, "tmp")
    cache = os.path.join(rep_dir, "table-cache")
    probe_dir = os.path.join(rep_dir, "probe")
    for directory in (tmp, cache, probe_dir):
        os.makedirs(directory)
    out_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload, out_path]
    if setup_only:
        cmd.append("--setup-only")
    before = shm_segments()
    child = Child(
        cmd,
        child_env(tmp, cache if workload == "build-census" else None, trace_dir, probe_dir),
        os.path.join(rep_dir, "log.txt"),
    )
    status = child.wait(CHILD_TIMEOUT_S)
    problems = []
    record = None
    if status != 0:
        problems.append(f"child exited {status}: {log_tail(os.path.join(rep_dir, 'log.txt'))}")
    else:
        with open(out_path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["setup_wall_s"] = record["ready_at"] - child.spawned_at
        record["peak_rss_mb"] = child.maxrss_kb / 1024.0
        record["cpu_s"] = child.cpu_s
        if not setup_only:
            record["latency_wall_s"] = sum(record["timings"].values())
            problems += check_batch(workload, record)
        at_probe_speed(record, speed.load_samples(probe_dir))
    leaked = shm_segments() - before
    if leaked:
        problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
    shutil.rmtree(cache, ignore_errors=True)
    return record, problems


def at_probe_speed(record: Dict, samples: List[Tuple[float, float]]) -> None:
    """The rep's reported ``setup_s`` and ``latency_s``: its wall times at
    probe speed (``speed.py``), each scaled by the samples of every process
    of the rep taken while it ran."""
    setup_spin = speed.median_between(samples, float("-inf"), record["ready_at"])
    record["setup_s"] = speed.scale(record["setup_wall_s"], setup_spin)
    record["spin_s"] = setup_spin
    if "work_end" in record:
        work_spin = speed.median_between(samples, record["ready_at"], record["work_end"])
        record["latency_s"] = speed.scale(record["latency_wall_s"], work_spin)
        record["spin_s"] = work_spin


def run_batch(workload: str, seconds: float, trace: bool, work_dir: str) -> Dict:
    """Children one after another."""
    setups: List[Dict] = []
    reps: List[Dict] = []
    problems: List[str] = []
    attempted = failed = 0
    index = 0

    def one(setup_only: bool, trace_dir: Optional[str] = None) -> Optional[Dict]:
        nonlocal attempted, failed, index
        index += 1
        attempted += 1
        record, issues = run_batch_child(workload, work_dir, index, setup_only, trace_dir)
        if issues:
            failed += 1
            problems.extend(issues)
            return None
        setups.append(record)
        return record

    if not trace:
        for _ in range(EXTRA_SETUPS[workload]):
            one(True)
        start = _clock()
        last = 0.0
        while not reps or (_clock() - start) + last <= seconds:
            t0 = _clock()
            record = one(False)
            last = _clock() - t0
            if record is None:
                break
            reps.append(record)
        return {"setups": setups, "reps": reps, "problems": problems,
                "attempted": attempted, "failed": failed}

    # An untraced rep right before the traced one: the tracing overhead.
    untraced = one(False)
    trace_dir = os.path.join(work_dir, "spans")
    os.makedirs(trace_dir)
    record = one(False, trace_dir)
    if record is not None and untraced is not None:
        reps.append(record)
    return {"setups": setups, "reps": reps, "problems": problems, "attempted": attempted,
            "failed": failed, "trace_dir": trace_dir, "untraced": untraced}


def batch_metrics(result: Dict) -> Tuple[Dict, List[Tuple[str, float, str]]]:
    reps, setups = result["reps"], result["setups"]
    lines: List[Tuple[str, float, str]] = []
    setup = statistics.median([r["setup_s"] for r in setups])
    peak = statistics.median([r["peak_rss_mb"] for r in reps])
    latency = statistics.median([r["latency_s"] for r in reps]) * 1e3
    lines.append(("setup_s", setup, "s"))
    lines.append(("latency_ms", latency, "ms"))
    lines.append(("peak_rss_mb", peak, "MB"))
    lines.append(("error_rate", harness.error_rate(result["attempted"], result["failed"]), "ratio"))
    # As measured: the wall times a user of this host saw.
    lines.append(("setup_wall_s", statistics.median([r["setup_wall_s"] for r in setups]), "s"))
    for key in reps[0]["timings"]:
        lines.append((key, statistics.median([r["timings"][key] for r in reps]), "s"))
    lines.append(("probe_spin_us", statistics.median([r["spin_s"] for r in reps]) * 1e6, "us"))
    lines.append(("reps", len(reps), "count"))
    metrics = {
        "setup_s": (setup, "s"),
        "latency_ms": (latency, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, lines


# ---------------------------------------------------------------------------
# serve-mixed.
# ---------------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 5.0) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """``python -m repro serve``, entered through ``serve_launcher.py``, in its
    own process.

    The launcher samples the host's speed (``speed.py``) until ``wait_ready``
    signals it with SIGUSR1, so ``setup_s`` can be reported at probe speed
    and no sample interrupts the server under load.
    """

    def __init__(self, work_dir: str, name: str, trace_dir: Optional[str]) -> None:
        self.port = free_port()
        self.tmp = tmp = os.path.join(work_dir, name)
        self.probe_dir = os.path.join(tmp, "probe")
        os.makedirs(self.probe_dir)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py"),
               "serve", "--port", str(self.port)]
        self.log_path = os.path.join(tmp, "log.txt")
        self.shm_before = shm_segments()
        self.child = Child(cmd, child_env(tmp, None, trace_dir, self.probe_dir), self.log_path)
        self.health: Dict = {}
        self.ready_at = 0.0

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Wait for the first ``/healthz`` 200, then end the launcher's probe."""
        deadline = _clock() + timeout
        while _clock() < deadline:
            if self.child.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {log_tail(self.log_path)}")
            try:
                status, body = http_get(self.port, "/healthz", timeout=1.0)
            except OSError:
                time.sleep(0.01)
                continue
            if status == 200:
                self.ready_at = _clock()
                self.health = json.loads(body)
                self.child.proc.send_signal(signal.SIGUSR1)
                return
            time.sleep(0.01)
        raise RuntimeError("no /healthz 200 within the timeout")

    def stop(self) -> List[str]:
        """SIGTERM, then check the exit status and for leaked segments."""
        problems = []
        if self.child.returncode is None:
            self.child.proc.send_signal(signal.SIGTERM)
        status = self.child.wait(30.0)
        if status != 0:
            problems.append(f"server exited {status} on SIGTERM: {log_tail(self.log_path)}")
        leaked = shm_segments() - self.shm_before
        if leaked:
            problems.append(f"server leaked shared-memory segments: {sorted(leaked)}")
        return problems


def drive(server: Server, seed: int, rates: List[float]) -> List[Dict]:
    """Run the load generator against ``server`` over ``rates``; its steps."""
    out_path = os.path.join(server.tmp, "load.json")
    log_path = os.path.join(server.tmp, "loadgen.txt")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "loadgen.py"),
           "--port", str(server.port), "--seed", str(seed),
           "--rates", ",".join(f"{r:g}" for r in rates),
           "--algorithms", ",".join(server.health["algorithms"]),
           "--out", out_path]
    generator = Child(cmd, child_env(server.tmp, None, None), log_path)
    if generator.wait(CHILD_TIMEOUT_S - 20) != 0:
        raise RuntimeError(f"load generator failed: {log_tail(log_path)}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)["steps"]


def run_serve(seed: int, trace: bool, work_dir: str) -> Dict:
    """Server sessions one after another; a session that fails ends the run.

    Untraced: set-up-only starts, then one session over r1, r2 and the
    ladder.  Traced: an untraced session over r1 and r2, then a traced one,
    back to back, so the tracing overhead compares runs of the same seed.
    """
    result: Dict = {"setups": [], "steps": [], "untraced_steps": [], "problems": [],
                    "attempted": 0, "failed": 0, "telemetry": {}, "peak_rss_mb": 0.0,
                    "trace_dir": None}
    if trace:
        result["trace_dir"] = os.path.join(work_dir, "spans")
        os.makedirs(result["trace_dir"])
        plan = [("untraced", [R1, R2], None), ("traced", [R1, R2], result["trace_dir"])]
    else:
        plan = [(f"setup{i}", [], None) for i in range(EXTRA_SETUPS["serve-mixed"])]
        plan.append(("main", [R1, R2] + harness.ladder_rates(R2, LADDER_CEILING), None))
    for name, rates, trace_dir in plan:
        result["attempted"] += 1
        server = Server(work_dir, name, trace_dir)
        steps: List[Dict] = []
        try:
            server.wait_ready()
            if rates:
                steps = drive(server, seed, rates)
                status, body = http_get(server.port, "/v1/telemetry")
                result["telemetry"] = json.loads(body) if status == 200 else {}
            issues = server.stop()
        except (RuntimeError, OSError, ValueError) as exc:
            issues = [f"server session {name}: {exc}"]
        finally:
            server.child.kill()
        for step in steps:
            result["attempted"] += step["sent"]
            result["failed"] += step["failed"]
            result["problems"] += [f"rate {step['rate']:g}: {f}" for f in step["failures"]]
        if issues:
            result["failed"] += 1
            result["problems"] += issues
            break
        # The probe's samples are all written once the server has exited.
        samples = speed.load_samples(server.probe_dir)
        wall = server.ready_at - server.child.spawned_at
        setup_spin = speed.median_between(samples, float("-inf"), server.ready_at)
        result["setups"].append((speed.scale(wall, setup_spin), wall))
        if rates:
            result["untraced_steps" if name == "untraced" else "steps"] = steps
            result["peak_rss_mb"] = server.child.maxrss_kb / 1024.0
    return result


def serve_metrics(result: Dict) -> Tuple[Dict, List[Tuple[str, float, str]]]:
    steps = result["steps"]
    r1, r2 = steps[0], steps[1]
    setup = statistics.median([scaled for scaled, _ in result["setups"]])
    latency = r1["verify_p50_ms"]
    # The ladder starts at r2; r1 is a fixed light-load point outside it.
    max_rate = harness.max_passing_rate(steps[1:], LATENCY_LIMIT_MS) or 0.0
    lines = [
        ("setup_s", setup, "s"),
        ("latency_ms", latency, "ms"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB"),
        ("setup_wall_s", statistics.median([wall for _, wall in result["setups"]]), "s"),
        ("error_rate", harness.error_rate(result["attempted"], result["failed"]), "ratio"),
        ("verify_p50_ms.r1", r1["verify_p50_ms"], "ms"),
        (f"verify_p{r1['verify_tail_p']:g}_ms.r1", r1["verify_tail_ms"], "ms"),
        ("verify_p50_ms.r2", r2["verify_p50_ms"], "ms"),
        (f"verify_p{r2['verify_tail_p']:g}_ms.r2", r2["verify_tail_ms"], "ms"),
        ("sweep_p50_ms.r2", r2["sweep_p50_ms"], "ms"),
        (f"sweep_p{r2['sweep_tail_p']:g}_ms.r2", r2["sweep_tail_ms"], "ms"),
        ("max_rate_rps", max_rate, "1/s"),
    ]
    metrics = {
        "setup_s": (setup, "s"),
        "latency_ms": (latency, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, lines


def print_steps(steps: List[Dict]) -> None:
    print("rate step   offered   sent  ok  failed  verify p50/tail ms   sweep p50/tail ms"
          "   gen lag p99 ms  valid  backlog  passed")
    for s in steps:
        print(f"{s['rate']:9g} {s['offered_rps']:9.1f} {s['sent']:6d} {s['succeeded']:5d} "
              f"{s['failed']:5d}   {s['verify_p50_ms']:7.3f}/{s['verify_tail_ms']:<8.3f}"
              f"   {s['sweep_p50_ms']:7.3f}/{s['sweep_tail_ms']:<8.3f}"
              f"   {s['generator_lag_p99_ms']:8.3f}     {str(s['valid']):5}  "
              f"{'grew' if s['backlog_grew'] else 'held':7}  {s['passed']}")


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics and the stage table.
# ---------------------------------------------------------------------------

#: Per-layer metrics every traced run reports, in stage-table order:
#: (metric, span name or source, field, unit).
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("enumeration.seconds", "enumeration", "total", "s"),
    ("enumeration.shapes", "enumeration", "items", "count"),
    ("algorithms.compute_calls", "algorithms.compute", "calls", "count"),
    ("algorithms.compute_seconds", "algorithms.compute", "total", "s"),
    ("core.view.from_bitmask_seconds", "core.view.from_bitmask", "total", "s"),
    ("core.decision_cache.lookups", "counter:decision_cache.lookups", "", "count"),
    ("core.decision_cache.misses", "counter:decision_cache.misses", "", "count"),
    ("core.decision_cache.hit_ratio", "hit_ratio", "", "ratio"),
    ("core.table_kernel.resolve_seconds", "core.table_kernel.resolve", "total", "s"),
    ("core.table_kernel.resolve_rows", "core.table_kernel.resolve", "items", "count"),
    ("core.table_kernel.index_lookup_seconds", "core.table_kernel.index_lookup", "total", "s"),
    ("core.table_kernel.build_seconds", "core.table_kernel.build", "total", "s"),
    ("core.table_kernel.fsync_verdict_seconds", "core.table_kernel.fsync_verdict", "total", "s"),
    ("core.table_kernel.fsync_verdict_calls", "core.table_kernel.fsync_verdict", "calls", "count"),
    ("core.table_kernel.derive_seconds", "core.table_kernel.derive", "total", "s"),
    ("core.table_kernel.derive_calls", "core.table_kernel.derive", "calls", "count"),
    ("core.table_kernel.expand_row_seconds", "core.table_kernel.expand_row", "total", "s"),
    ("core.table_kernel.expand_row_calls", "core.table_kernel.expand_row", "calls", "count"),
    ("core.table_kernel.scope_check_seconds", "agg:core.table_kernel.scope_check", "seconds", "s"),
    ("core.table_kernel.scope_check_calls", "agg:core.table_kernel.scope_check", "calls", "count"),
    ("core.sharded_tables.build_self_seconds", "core.sharded_tables.build", "self", "s"),
    ("core.sharded_tables.open_seconds", "core.sharded_tables.open", "total", "s"),
    ("core.sharded_tables.shard_opens", "counter:table.shard_opens", "", "count"),
    ("core.sharded_tables.shard_evictions", "counter:table.shard_evictions", "", "count"),
    ("core.sharded_tables.disk_bytes", "gauge:table.shard_disk_bytes", "", "bytes"),
    ("core.shared_tables.publish_seconds", "core.shared_tables.publish", "total", "s"),
    ("core.shared_tables.segments_published", "counter:shm.segments_published", "", "count"),
    ("core.shared_tables.segments_attached", "counter:shm.segments_attached", "", "count"),
    ("core.runner.chunk_wait_seconds", "core.runner.chunk_wait", "total", "s"),
    ("core.runner.chunks", "core.runner.chunk_wait", "items", "count"),
    ("explore.transitions.bfs_self_seconds", "explore.transitions.bfs", "self", "s"),
    ("explore.transitions.vertices", "counter:explore.vertices_expanded", "", "count"),
    ("explore.transitions.edges", "counter:explore.edges_discovered", "", "count"),
    ("explore.analyzer.scc_seconds", "explore.analyzer.scc", "total", "s"),
    ("explore.analyzer.classify_self_seconds", "explore.analyzer.classify", "self", "s"),
    ("synth.search.repair_seconds", "synth.search.repair", "total", "s"),
    ("synth.cegis.candidates", "counter:cegis.candidates_tried", "", "count"),
    ("synth.cegis.explores", "counter:cegis.explores", "", "count"),
    ("serve.http.decode_seconds", "serve.http.decode", "total", "s"),
    ("serve.http.request_seconds", "serve.http.request", "total", "s"),
    ("serve.http.residual_seconds", "serve_residual", "", "s"),
    ("serve.protocol.parse_seconds", "serve.protocol.parse", "total", "s"),
    ("serve.service.queue_wait_seconds", "serve_queue_wait", "", "s"),
    ("serve.service.kernel_seconds", "serve.service.kernel", "total", "s"),
    ("serve.service.batch_items", "counter:serve.batch_items", "", "count"),
    ("serve.service.batches", "counter:serve.batches_total", "", "count"),
    ("serve.client.generator_lag_ms", "client:generator_lag_ms", "", "ms"),
    ("serve.client.sent", "client:sent", "", "count"),
    ("serve.client.succeeded", "client:succeeded", "", "count"),
    ("serve.client.failed", "client:failed", "", "count"),
    ("serve.client.network_seconds", "client:network_seconds", "", "s"),
)


#: Per-layer times that go into the result line: the layers every workload
#: calls.  A layer a workload never calls reads exactly 0 s on every run of
#: it, so the workload-specific times are printed (``layer ...`` lines and the
#: stage table) but only counts, ratios and bytes of those layers go into the
#: result line.
SHARED_LAYER_TIMES = (
    "enumeration.seconds",
    "algorithms.compute_seconds",
    "core.view.from_bitmask_seconds",
    "core.table_kernel.resolve_seconds",
    "core.table_kernel.index_lookup_seconds",
)


def in_result_line(metric: str, unit: str) -> bool:
    return unit not in ("s", "ms") or metric in SHARED_LAYER_TIMES


def serve_queue_wait(spans: List[tuple]) -> float:
    """Time requests spent in ``submit_batched`` beyond their batch's kernel time."""
    requests_of = {sid: items for sid, _, name, _, _, items in spans
                   if name == "serve.service.flush"}
    submitted = sum(t1 - t0 for _, _, name, t0, t1, _ in spans
                    if name == "serve.service.submit")
    kernel = sum((t1 - t0) * requests_of.get(parent, 1)
                 for _, parent, name, t0, t1, _ in spans if name == "serve.service.kernel")
    return max(0.0, submitted - kernel)


def layer_values(spans, aggregates, counters: Dict, gauges: Dict, client: Dict) -> Dict[str, float]:
    totals = harness.layer_totals(spans)
    values: Dict[str, float] = {}
    for metric, source, field, _ in LAYER_METRICS:
        if source.startswith("counter:"):
            value = counters.get(source[8:], 0)
        elif source.startswith("gauge:"):
            value = gauges.get(source[6:], 0)
        elif source.startswith("agg:"):
            row = aggregates.get(source[4:], [0, 0.0])
            value = row[0] if field == "calls" else row[1]
        elif source.startswith("client:"):
            value = client.get(source[7:], 0)
        elif source == "hit_ratio":
            lookups = counters.get("decision_cache.lookups", 0)
            value = 1.0 - counters.get("decision_cache.misses", 0) / lookups if lookups else 0.0
        elif source == "serve_queue_wait":
            value = serve_queue_wait(spans)
        elif source == "serve_residual":
            value = (totals.get("serve.http.request", {}).get("total", 0.0)
                     - totals.get("serve.http.decode", {}).get("total", 0.0)
                     - totals.get("serve.protocol.parse", {}).get("total", 0.0)
                     - totals.get("serve.service.handle", {}).get("total", 0.0))
        else:
            value = totals.get(source, {}).get(field, 0)
        values[metric] = value
    return values


def print_stage_table(title: str, spans: List[tuple], aggregates: Dict,
                      window: Optional[Tuple[int, float, float]], traced_s: float,
                      overhead: Tuple[str, float, float]) -> None:
    """Per span name: calls, total, self; then how the stages add up.

    ``traced_s`` is the traced end-to-end time the shares refer to;
    ``overhead`` is (what is compared, traced value, untraced value).
    """
    totals = harness.layer_totals(spans)
    print(f"\nstage table: {title}")
    print(f"{'stage':42} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}")
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        share = 100.0 * row["self"] / traced_s if traced_s else 0.0
        print(f"{name:42} {int(row['calls']):9d} {row['total']:10.4f} {row['self']:10.4f} {share:6.1f}%")
    for name, (calls, seconds) in sorted(aggregates.items()):
        print(f"{name + ' (count only)':42} {int(calls):9d} {seconds:10.4f} {'':>10} {'':>7}")
    if window is not None:
        pid, start, end = window
        covered = harness.root_coverage([s for s in spans if s[0] >> 32 == pid], start, end)
        print(f"traced end-to-end {traced_s:.4f} s; stages cover {covered:.4f} s "
              f"({100.0 * covered / traced_s:.1f}%); unattributed glue outside wrapped calls "
              f"{traced_s - covered:.4f} s. Worker-process stages run in parallel with "
              "core.runner.chunk_wait and are not added to the total.")
    what, traced_value, untraced_value = overhead
    calls = len(spans) + sum(int(c) for c, _ in aggregates.values())
    delta = traced_value - untraced_value
    print(f"tracing overhead on {what}: traced {traced_value:.4f} s - untraced "
          f"{untraced_value:.4f} s (run right before it) = {delta:+.4f} s "
          f"({100.0 * delta / untraced_value:+.1f}%); the stages account for the untraced "
          f"time up to this gap, which is the cost of {calls} wrapped calls plus "
          "run-to-run noise")


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    work_dir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}-{int(time.time() * 1e3)}")
    os.makedirs(work_dir)
    try:
        return _run_workload(workload, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> Dict:
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    if workload == "serve-mixed":
        result = run_serve(seed, trace, work_dir)
        print_steps(result["steps"])
        complete = len(result["steps"]) >= 2
    else:
        result = run_batch(workload, seconds, trace, work_dir)
        complete = bool(result["reps"])
        for record in result["reps"]:
            print("rep: " + " ".join(f"{k}={v:.4f}" for k, v in record["timings"].items())
                  + f" process_cpu_s={record['cpu_s']:.4f}"
                  + " work " + json.dumps(record["work"], sort_keys=True)
                  + " outputs " + json.dumps(record["outputs"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = complete and result["failed"] == 0 and not result["problems"]
    out = {"correct": correct, "attempted": max(1, result["attempted"]),
           "failed": result["failed"] if complete else max(1, result["failed"]), "metrics": {}}
    if not complete:
        return out
    if not trace:
        metrics, lines = (serve_metrics if workload == "serve-mixed" else batch_metrics)(result)
        for name, value, unit in lines:
            print(f"metric {name} = {value:.6g} {unit}")
        out["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
        return out

    spans, aggregates = tracer_module.load_spans(result["trace_dir"])
    if workload == "serve-mixed":
        telemetry = result["telemetry"].get("metrics", {})
        batch_size = telemetry.get("histograms", {}).get("serve.batch_size", {})
        counters = dict(telemetry.get("counters", {}),
                        **{"serve.batch_items": batch_size.get("sum", 0)})
        gauges = telemetry.get("gauges", {})
        steps = result["steps"]
        server_request = harness.layer_totals(spans).get("serve.http.request", {}).get("total", 0.0)
        client = {
            "generator_lag_ms": max(s["generator_lag_p99_ms"] for s in steps),
            "sent": sum(s["sent"] for s in steps),
            "succeeded": sum(s["succeeded"] for s in steps),
            "failed": sum(s["failed"] for s in steps),
            "network_seconds": sum(s["client_seconds"] for s in steps) - server_request,
        }
        window = None
        traced_s = sum(s["latency_sum_s"] for s in steps)
        print(f"\nclient-observed latency, summed over {client['sent']} requests: {traced_s:.4f} s; "
              f"server-side request spans {server_request:.4f} s; the rest is network, client "
              "queueing and the generator")
        overhead = ("verify p50 at r2", steps[1]["verify_p50_ms"] / 1e3,
                    result["untraced_steps"][1]["verify_p50_ms"] / 1e3)
    else:
        record = result["reps"][0]
        counters, gauges, client = record["counters"], record["gauges"], {}
        window = (record["pid"], record["ready_at"], record["work_end"])
        traced_s = sum(record["timings"].values())
        overhead = ("end-to-end rep time at probe speed", record["latency_s"],
                    result["untraced"]["latency_s"])
    values = layer_values(spans, aggregates, counters, gauges, client)
    unit_of = {metric: unit for metric, _, _, unit in LAYER_METRICS}
    print_stage_table(workload, spans, aggregates, window, traced_s, overhead)
    for name, value in values.items():
        print(f"layer {name} = {value:.6g} {unit_of[name]}")
    out["metrics"] = {name: {"value": value, "unit": unit_of[name]}
                      for name, value in values.items() if in_result_line(name, unit_of[name])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        sys.stdout.flush()
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        for workload, result in results.items():
            print(f"result {workload} {json.dumps(result, sort_keys=True)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
