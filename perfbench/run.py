"""Benchmark of shnr: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and describe the machine.  The exit code is 0 only
when every output was checked correct (and, traced, every call was seen).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Pin BLAS before numpy loads; children (the set-up probes) inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
SETUP_LAUNCHES = 11
WATCHED = ("seminorms.big_omega", "seminorms.alpha")


def run_units(cli, units, seconds, count=None, tr=None, probe=None):
    """Run whole units: ``count`` of them, or about ``seconds`` worth.

    Without a count, another unit starts only while one more, as long as
    the last, still fits in the time, so every run keeps the same mix of
    requests and never measures much longer than ``seconds``.
    A ``probe`` gets a turn between requests; its time is not counted.
    """
    results = []
    done = 0
    last = 0.0
    t_start = time.perf_counter()
    paused = probe.spent if probe else 0.0

    def now():
        return time.perf_counter() - t_start - ((probe.spent - paused) if probe else 0.0)

    while count is None or done < count:
        if count is None and done and now() + last > seconds:
            break
        u0 = now()
        for req in units[done % len(units)]:
            if probe:
                probe.turn(now())
            call = workloads.call
            if tr is not None and req.argv[0] == "check":
                call = tr.wrap(call, f"verify.check.{req.argv[2]}")
            r0 = time.perf_counter()
            rc, out = call(cli, req.argv)
            results.append(workloads.Result(req, rc, out, time.perf_counter() - r0))
        last = now() - u0
        done += 1
    return results, done, now()


class SetupProbe:
    """Set-up time: wall time of a fresh interpreter that imports shnr.cli.

    The launches are spread over the measured run (``turn`` makes one when
    it is due), so their median covers the run, not one moment of it.
    """

    def __init__(self, launches, seconds):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import shnr.cli"]
        self.launches = launches
        self.every = seconds / launches
        self.times = []
        self.spent = 0.0
        self._launch()  # fills the bytecode cache
        self.times.clear()

    def _launch(self):
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.spent += dt

    def turn(self, t):
        if len(self.times) < self.launches and t >= len(self.times) * self.every:
            self._launch()

    def median(self):
        while len(self.times) < self.launches:
            self._launch()
        return statistics.median(self.times)


def environment():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cli_threads": workloads.CHECK_THREADS,
    }


def end_to_end(latencies, throughput, setup_s, peak_rss_mb):
    lat = np.array(latencies) * 1000.0
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "latency_p95_ms": (float(np.percentile(lat, 95)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tr, check_ids, overhead):
    calls, self_s, total_s, counters = tr.summary()
    values = {}
    for layer in tracer.CALL_LAYERS:
        values[f"{layer}.calls"] = (calls[layer], "count")
        values[f"{layer}.self_s"] = (self_s[layer], "s")
    values[f"{tracer.EVALUATE_LAYER}.self_s"] = (self_s[tracer.EVALUATE_LAYER], "s")
    for cid in check_ids:
        values[f"verify.check.{cid}.total_s"] = (total_s[f"verify.check.{cid}"], "s")
    for name in (tracer.OBJECTIVE_COUNTER, tracer.MATRICES_COUNTER):
        values[name] = (counters[name], "count")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    return values


def trace_problems(tr, workload, results):
    """On catalog, the A-norm-only checks must make no Omega_A or alpha call,
    and every check whose report lists those seminorms must make them."""
    if workload != "catalog":
        return []
    seen = collections.defaultdict(collections.Counter)
    for name, counts in tr.calls_within("verify.check.", WATCHED):
        seen[name.rsplit(".", 1)[1]].update(counts)
    problems = [
        f"{cid} uses only the A-norm but made {seen[cid][w]} {w} calls"
        for cid in workloads.ANORM_CHECKS
        for w in WATCHED
        if seen[cid][w]
    ]
    for res in results:
        cid = res.request.key[0]
        with open(res.request.argv[-1], encoding="utf-8") as fh:
            sems = json.load(fh)["checks"][0]["seminorms"]
        if "big_omega" in sems and not seen[cid]["seminorms.big_omega"]:
            problems.append(f"{cid} lists big_omega but made no Omega_A call")
        if any(s.startswith("a_alpha") for s in sems) and not seen[cid]["seminorms.alpha"]:
            problems.append(f"{cid} lists a_alpha but made no alpha call")
    return sorted(set(problems))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import shnr
        import shnr.cli as cli
    except ImportError as exc:
        print(f"error: cannot import shnr from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(shnr.__file__).startswith(SRC + os.sep):
        print(f"error: shnr was imported from {shnr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    try:
        wl = workloads.WORKLOADS[args.workload](shnr, args.seed, tmp, args.seconds)
        check_ids = [s.id for s in shnr.verify.catalog()]
        env = environment()
        probe = None if args.trace else SetupProbe(SETUP_LAUNCHES, args.seconds)
        for req in wl.warmup:
            workloads.call(cli, req.argv)
        # a traced run measures half the time untraced, then replays those units traced
        measured = args.seconds / 2 if args.trace else args.seconds
        results, units, elapsed = run_units(cli, wl.units, measured, probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = probe.median() if probe else None
        chk = wl.verify(results)
        failed, attempted, problems = chk.failed, chk.attempted, list(chk.problems)
        if not args.trace:
            metrics = end_to_end(wl.latencies(results), chk.done / elapsed, setup_s, peak_rss_mb)
        else:
            tr = tracer.Tracer()
            tr.install()
            try:
                t0 = time.perf_counter()
                traced, _, _ = run_units(cli, wl.units, measured, count=units, tr=tr)
                traced_s = time.perf_counter() - t0
            finally:
                tr.uninstall()
            again = wl.verify(traced)
            missed = trace_problems(tr, args.workload, traced)
            failed += again.failed + len(missed)
            attempted += again.attempted
            problems += again.problems + missed
            metrics = per_layer(tr, check_ids, traced_s / elapsed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {units} units, "
          f"{len(results)} requests in {elapsed:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {failed / max(attempted, 1)!r} ratio ({failed} of {attempted})")
    for msg in problems:
        print(f"problem: {msg}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
