"""Benchmark of the uvbraid word problem and certificate layers.

    python3 perfbench/run.py --workload wp-wide --seed 1 --seconds 20 --trace 0

Runs one closed-loop workload (one caller, one thread) from the root of a
source checkout, checks every answer, and prints one JSON line of run
metadata followed by the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first half
of the run is untraced and the second half traced, and the metrics are
the per-layer ones plus the tracing overhead.  Ops run in fresh worker
interpreters (``--worker``): ``PARTS`` of them, one after another, for an
untraced run and one for a traced run.  See README.md.

Times are host-corrected by ``host.HostSampler``: a reference loop runs
in a timer signal handler while the program runs, its time is left out
of every measured interval, and each timed step is scaled by
``R_NOMINAL_MS / R_local``, the reference time sampled during that step.
Set-up runs in fresh interpreters, each sampling its own host speed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from random import Random
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from host import R_NOMINAL_MS, HostSampler  # noqa: E402
from prepare import program_setup  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 11
# Worker interpreters per untraced run.  Op cost differs by a few per cent
# from one interpreter to the next (for wp-wide about as much as the host
# drift left after correction), so a run pools several.
PARTS = 4
WARMUP_OPS = 2
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it

PER_LAYER: list[tuple[str, str]] = [
    ("raag.build_graph.setup_ms", "ms"),
    ("oracle.rewrite_rules.setup_ms", "ms"),
    ("raag.normal_form.self_ms_per_op", "ms"),
    ("raag.normal_form.letters_in_per_call", "count"),
    ("raag.normal_form.letters_out_per_call", "count"),
    ("semidirect.to_normal_form.self_ms_per_op", "ms"),
    ("semidirect.to_normal_form.calls_per_op", "count"),
    ("words.parse_word.ms_per_op", "ms"),
    ("semidirect.expand_kword.ms_per_op", "ms"),
    ("perms.rho_word.ms_per_op", "ms"),
    ("cli.run.self_ms_per_op", "ms"),
    ("cli.run.calls_per_op", "count"),
    ("raag.clique_number.ms_per_op", "ms"),
    ("raag.is_p3_free.ms_per_op", "ms"),
    ("raag.f2xf2_witness.ms_per_op", "ms"),
    ("raag.dominating_vertices.ms_per_op", "ms"),
    ("quotients.quotient_order.ms_per_op", "ms"),
    ("quotients.quotient_order.closure_size", "count"),
    ("homs.enumerate_homs.self_ms_per_op", "ms"),
    ("homs.enumerate_homs.found_per_call", "count"),
    ("homs.verify_homspec.calls_per_op", "count"),
    ("oracle.bfs_equal.ms_per_op", "ms"),
    ("oracle.bfs_equal.explored_per_call", "count"),
    ("oracle.bfs_equal.proven_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def git_commit(root: Path) -> str | None:
    """The checkout's commit, or None where ``root`` is not a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_setup(wl: Workload) -> list[tuple[float, float]]:
    """(raw seconds, host correction) of ``SETUP_SAMPLES`` fresh set-up interpreters.

    Raw time is wall time without the child's sampler; the correction is
    R_NOMINAL_MS over the child's own mean reference time.
    """
    arg = json.dumps([wl.graphs, wl.rules])
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), str(SRC), arg],
            check=True, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        spent_ns, ref_ms = proc.stdout.split()
        out.append((elapsed - int(spent_ns) / 1e9, R_NOMINAL_MS / float(ref_ms)))
    return out


Step = tuple[int, int]  # (start, end) on the sampler's clock


class Loop:
    """Closed loop over a workload's ops; times each step on the sampler's clock."""

    def __init__(self, uv: Any, wl: Workload, seed: str, host: HostSampler) -> None:
        self.uv, self.wl, self.host = uv, wl, host
        self.rng = Random(f"{seed}:{wl.name}")
        self.warm_rng = Random(f"{seed}:{wl.name}:warmup")
        self.attempted = 0
        self.failed = 0
        self.keys_seen: set[int] = set()  # hashes, so memory stays small
        self.keys_total = 0
        self.keys_repeated = 0

    def _run_op(self, op: Any, tracer: Tracer | None, index: int) -> list[Step]:
        """Run one op and check its answers; return its steps' intervals."""
        if tracer is not None:
            tracer.op = index
        clock = self.host.clock
        timings, results = [], []
        ok = True
        for step in self.wl.steps(self.uv, op):
            start = clock()
            try:
                result = step()
            except Exception:
                traceback.print_exc()
                ok, result = False, None
            timings.append((start, clock()))
            results.append(result)
        self.attempted += 1
        if tracer is not None:
            tracer.active = False
        try:
            ok = ok and self.wl.check(self.uv, op, results)
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            if tracer is not None:
                tracer.active = True
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"failed op {index}: {op!r:.300}", file=sys.stderr)
        for key in self.wl.keys(op):
            key = hash(key)
            self.keys_total += 1
            if key in self.keys_seen:
                self.keys_repeated += 1
            self.keys_seen.add(key)
        return timings

    def warmup(self, count: int) -> None:
        for _ in range(count):
            self._run_op(self.wl.make_op(self.warm_rng), None, -1)
        self.keys_seen.clear()
        self.keys_total = self.keys_repeated = 0

    def run(self, seconds: float, tracer: Tracer | None = None) -> list[list[Step]]:
        """Run at least one op, then more until ``seconds`` of loop time
        pass; input generation does not count against ``seconds``."""
        ops: list[list[Step]] = []
        gc.collect()
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            made = time.perf_counter()
            op = self.wl.make_op(self.rng)
            deadline += time.perf_counter() - made
            ops.append(self._run_op(op, tracer, len(ops)))
        return ops


def op_times(ops: list[list[Step]], host: HostSampler) -> tuple[list[float], list[float]]:
    """Per-op (corrected, raw) times in ms; each step is corrected by its local reference."""
    corrected, raw = [], []
    for steps in ops:
        corrected.append(
            sum((end - start) * host.factor(start, end) for start, end in steps) / 1e6
        )
        raw.append(sum(end - start for start, end in steps) / 1e6)
    return corrected, raw


def latency_stats(ms: list[float]) -> dict[str, float]:
    ordered = sorted(ms)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k < n // 2:  # too few samples for a tail above the median: report the maximum
        k = n - 1
    return {
        "ops_per_s": 1000.0 * n / sum(ordered),
        "latency_p50_ms": statistics.median(ordered),
        "latency_tail_ms": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples_beyond": n - k - 1,
        "samples": n,
    }


def per_layer(tracer: Tracer, setup: tuple[int, int], run: tuple[int, int], ops: int,
              setup_factor: float, run_factor: float, overhead: float) -> dict[str, float]:
    in_setup = tracer.summary(*setup)
    in_run = tracer.summary(*run)
    values: dict[str, float] = {"trace.overhead_ratio": overhead}
    for name, _ in PER_LAYER:
        if name in values:
            continue
        func, _, stat = name.rpartition(".")
        row = (in_setup if stat == "setup_ms" else in_run).get(func, {})
        calls = row.get("calls", 0)
        if stat == "setup_ms":
            value = row.get("total_ns", 0) / 1e6 * setup_factor
        elif stat == "ms_per_op":
            value = row.get("total_ns", 0) / 1e6 * run_factor / ops
        elif stat == "self_ms_per_op":
            value = row.get("self_ns", 0) / 1e6 * run_factor / ops
        elif stat == "calls_per_op":
            value = calls / ops
        else:  # a count per call: "<count>_per_call", "<count>_ratio" or "<count>"
            count = stat.removesuffix("_per_call").removesuffix("_ratio")
            value = row.get(count, 0) / calls if calls else 0.0
        values[name] = float(value)
    return values


def run_worker(workload: str, seed: int, part: int, seconds: float, trace: bool) -> dict:
    """One worker interpreter's share of a run: program set-up, warm-up,
    then ops until ``seconds`` pass, every answer checked.  Returns per-op
    times and counts; a traced worker also returns the per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import uvbraid as uv

    wl = WORKLOADS[workload]
    for module in wl.imports:  # before the tracer patches the loaded modules
        importlib.import_module(module)
    host = HostSampler()
    tracer = Tracer(host.clock) if trace else None
    loop = Loop(uv, wl, f"{seed}:{part}", host)
    host.start()
    host.sample()  # so that every interval has a sample near it
    try:
        if tracer is not None:
            tracer.install()
        setup_start = host.clock()
        program_setup(uv, wl.graphs, wl.rules)
        setup_factor = host.factor(setup_start, host.clock())
        setup_span = (0, len(tracer.spans)) if tracer else (0, 0)
        if tracer is not None:
            tracer.uninstall()
        loop.warmup(WARMUP_OPS)
        if tracer is None:
            ops = loop.run(seconds)
        else:
            ops = loop.run(seconds / 2)
            tracer.install()
            first_span = len(tracer.spans)
            traced_start = host.clock()
            traced = loop.run(seconds / 2, tracer)
            run_factor = host.factor(traced_start, host.clock())
            tracer.uninstall()
            run_span = (first_span, len(tracer.spans))
    finally:
        host.stop()
    corrected, raw = op_times(ops, host)
    out = {
        "corrected_ms": corrected,
        "raw_ms": raw,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "keys_total": loop.keys_total,
        "keys_repeated": loop.keys_repeated,
        "reference_ns": host.ns,
        "sampler_ms": host.spent_ns / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced_ms, _ = op_times(traced, host)
        overhead = statistics.fmean(traced_ms) / statistics.fmean(corrected)
        out["per_layer"] = per_layer(tracer, setup_span, run_span, len(traced),
                                     setup_factor, run_factor, overhead)
        out["traced_ops"] = len(traced)
        out["layers"] = tracer.summary(*run_span)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.json"
        tracer.dump(str(spans_path))
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def spawn_worker(workload: str, seed: int, part: int, seconds: float, trace: bool) -> dict:
    """``run_worker`` in a fresh interpreter; its stderr passes through."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", str(part),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result line and its metadata.

    An untraced run pools the ops of ``PARTS`` worker interpreters, each
    running for an equal share of ``seconds``; a traced run uses one.
    """
    if not (SRC / "uvbraid" / "__init__.py").is_file():
        raise FileNotFoundError(f"no uvbraid sources under {SRC}")
    wl = WORKLOADS[workload]
    setup = measure_setup(wl)
    parts = 1 if trace else PARTS
    workers = [spawn_worker(workload, seed, part, seconds / parts, trace)
               for part in range(parts)]

    def pooled(key: str) -> list:
        return [x for w in workers for x in w[key]]

    stats, raw_stats = latency_stats(pooled("corrected_ms")), latency_stats(pooled("raw_ms"))
    ref_ms = sorted(ns / 1e6 for ns in pooled("reference_ns"))
    keys_total = sum(w["keys_total"] for w in workers)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "cores": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "workers": parts,
        "r_nominal_ms": R_NOMINAL_MS,
        "reference_ms": {
            "count": len(ref_ms),
            "median": statistics.median(ref_ms),
            "quartiles": statistics.quantiles(ref_ms, n=4),
            "min": ref_ms[0],
            "max": ref_ms[-1],
        },
        "sampler_ms": sum(w["sampler_ms"] for w in workers),
        "setup_s_samples": [{"raw": t, "factor": f} for t, f in setup],
        "tail_percentile": stats["tail_percentile"],
        "tail_samples_beyond": stats["tail_samples_beyond"],
        "timed_ops": stats["samples"],
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            **{key: raw_stats[key] for key in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")},
        },
        "input_repeat_share":
            sum(w["keys_repeated"] for w in workers) / keys_total if keys_total else 0.0,
    }
    if trace:
        (worker,) = workers
        units = dict(PER_LAYER)
        metrics = {name: (value, units[name]) for name, value in worker["per_layer"].items()}
        for key in ("traced_ops", "layers", "spans_file"):
            meta[key] = worker[key]
    else:
        metrics = {
            "setup_s": (statistics.median(t * f for t, f in setup), "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
            "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
            "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        }
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return {"meta": meta, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        print(json.dumps(run_worker(args.workload, args.seed, args.worker, args.seconds,
                                    bool(args.trace))))
        return 0
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
