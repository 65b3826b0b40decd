"""The benchmark's workloads: request streams into ``shnr.cli.main``.

A workload is a list of units; a unit is a list of requests, and the runner
only ever stops between units, so every run sees the same mix.  All inputs
(matrix files, seeds, report paths) are made before timing starts, and a
few cheap ``warmup`` requests run untimed first, so that every timed pass
finds the code paths of an in-process caller already warm.

``catalog``
    one unit is a pass over the 27 checks: ``shnr check --only <id>``
    requests with the CLI's default dims and rank profiles, ``--threads 1``,
    and as many instances as the check has (dim, rank profile, seminorm)
    cells, so each request visits every cell of its check exactly once.
    A single ``shnr check`` would need 45 instances for every check to do
    the same (9 cells times the 5 alphas of C21), 2.5x the work.  The
    checks in ``REPEATED`` take well under 0.15 s a request, so a pass runs
    each of them ``REPEATS`` times with distinct seeds; a check's latency is
    the median of its requests, and the catalog latency percentiles are
    taken over the checks, so no single short request decides them.
``compute``
    one unit is 12 operations on one seeded (A, T) pair for each n in
    2, 4, 8, 16, 48 requests; units rotate through the rank profiles full,
    n-1, half.  A closed loop with one client.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import oracles

# the checks that use only the A-norm: they never evaluate Omega_A or alpha
ANORM_CHECKS = (
    "C01", "C02", "C05", "C06", "C07", "C08", "C09", "C11", "C12", "C13",
    "C14", "C15", "C16", "C17", "C18", "C19",
)
# checks under 0.15 s a request when the benchmark was added; fixed, so the
# request mix of a pass does not depend on the code's speed
REPEATED = (
    "C01", "C05", "C06", "C08", "C09", "C11", "C12", "C13", "C14", "C15",
    "C16", "C17", "C18", "C19", "C20", "C23",
)
REPEATS = 5
CHECK_THREADS = 1
NS = (2, 4, 8, 16)
PROFILES = {"full": lambda n: n, "n-1": lambda n: n - 1, "half": lambda n: (n + 1) // 2}
TOL = 1e-6
SQRT2 = math.sqrt(2.0)


def unit_ops(u):
    """The 12 (label, argv) operations made on every pair of unit ``u``.

    alpha_norm and membership alternate their variant between units, so
    three n=16 operations (big_omega and two generic gen_radius) are 6.25%
    of the requests and p95 falls inside them, not on their edge.
    """
    even = u % 2 == 0
    return [
        ("norm_a", ["norm_a"]),
        ("omega_a", ["omega_a"]),
        ("adjoint", ["adjoint"]),
        ("re_a", ["re_a"]),
        ("im_a", ["im_a"]),
        ("alpha_norm@0", ["alpha_norm", "--alpha", "0"]) if even
        else ("alpha_norm@1", ["alpha_norm", "--alpha", "1"]),
        ("big_omega", ["big_omega"]),
        ("gamma_a", ["gamma_a"]),
        ("gen_radius@a_norm", ["gen_radius", "--seminorm", "a_norm"]),
        ("gen_radius@big_omega", ["gen_radius", "--seminorm", "big_omega"]),
        ("gen_radius@a_alpha", ["gen_radius", "--seminorm", "a_alpha", "--alpha", "0.5"]),
        ("membership@T", None) if even else ("membership@N", None),
    ]


@dataclass
class Request:
    argv: list
    key: tuple = ()          # identifies the request's inputs and operation
    expect_rc: int = 0


@dataclass
class Result:
    request: Request
    rc: int
    out: str
    seconds: float


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    done: int = 0            # work completed: catalog instances, compute requests
    problems: list = field(default_factory=list)

    def fail(self, count, msg):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(msg)


def call(cli, argv):
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# catalog


def cells(shnr, spec):
    """(dim, rank profile, seminorm) cells of a check under the CLI defaults."""
    defaults = shnr.cli.build_parser().parse_args(["check"])
    grid = len(defaults.dims.split(",")) * len(defaults.ranks.split(","))
    alphas = inspect.signature(shnr.verify.run_suite).parameters["alphas"].default
    sems = sum(len(alphas) if s == "a_alpha" else 1 for s in spec.seminorm_ids)
    return min(grid * sems, spec.max_instances or grid * sems)


class CatalogWorkload:
    def __init__(self, shnr, seed, tmp, seconds):
        specs = shnr.verify.catalog()
        self.max_instances = {s.id: s.max_instances for s in specs}
        units = _max_units(seconds, 1.0)
        seeds = np.random.SeedSequence(seed).generate_state(units * REPEATS).reshape(units, -1)
        once = [spec for spec in specs if spec.id not in REPEATED]
        # round r: every repeated check once, then every REPEATS-th other check,
        # so the repeats of a check are spread over the pass
        order = [
            (spec, r)
            for r in range(REPEATS)
            for spec in [s for s in specs if s.id in REPEATED] + once[r::REPEATS]
        ]
        self.units = [
            [
                Request(
                    ["check", "--only", spec.id, "--instances", str(cells(shnr, spec)),
                     "--threads", str(CHECK_THREADS), "--seed", str(int(unit_seeds[r])),
                     "--out", os.path.join(tmp, f"u{u}-{spec.id}-{r}.json")],
                    key=(spec.id, int(unit_seeds[r])),
                )
                for spec, r in order
            ]
            for u, unit_seeds in enumerate(seeds)
        ]
        self.warmup = [
            Request(["check", "--only", spec.id, "--instances", "1",
                     "--threads", str(CHECK_THREADS), "--seed", "0",
                     "--out", os.path.join(tmp, "warmup.json")])
            for spec in specs
        ]

    @staticmethod
    def latencies(results):
        """Each check's median request time, in seconds."""
        times = {}
        for res in results:
            times.setdefault(res.request.key[0], []).append(res.seconds)
        return [statistics.median(t) for t in times.values()]

    def verify(self, results):
        chk = Check()
        for res in results:
            cid, seed = res.request.key
            path = res.request.argv[-1]
            try:
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                (entry,) = report["checks"]
            except (OSError, ValueError, KeyError) as exc:
                chk.attempted += 1
                chk.fail(1, f"{cid} seed {seed}: no report ({exc})")
                continue
            total = entry["instances_run"] + entry["incomplete"]
            chk.attempted += total
            chk.done += entry["instances_run"]
            bad = entry["violations"] + entry["incomplete"]
            if entry["id"] != cid or report["config"]["seed"] != seed:
                chk.fail(max(total, 1), f"{cid} seed {seed}: report is for another run")
                continue
            if bad:
                chk.fail(bad, f"{cid} seed {seed}: {entry['violations']} violations, "
                              f"{entry['incomplete']} incomplete")
            holes = self._holes(report["config"], entry, total)
            if holes:
                chk.fail(holes, f"{cid} seed {seed}: {holes} (dim, rank, seminorm) cells unreached")
            if res.rc != 0 and not bad:
                chk.fail(1, f"{cid} seed {seed}: exit code {res.rc}")
        return chk

    def _holes(self, config, entry, total):
        """Cells never visited, by the runner's index-to-cell assignment."""
        grid = [(n, p) for n in config["dims"] for p in config["rank_profiles"]]
        sems = entry["seminorms"]
        need = len(grid) * len(sems)
        cap = self.max_instances.get(entry["id"])
        if cap is not None:
            need = min(need, cap)
        reached = {
            (grid[i % len(grid)], sems[(i // len(grid)) % len(sems)]) for i in range(total)
        }
        return max(need - len(reached), 0)


# ---------------------------------------------------------------------------
# compute


def _pair(rng, n, rank):
    """(A, T, N): PSD A of the given rank, member T, and N outside the class
    whenever A is singular (N maps ker A into range A)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    vals = rng.uniform(0.2, 1.0, size=rank)
    vals /= vals.max()
    a = (q[:, :rank] * vals) @ q[:, :rank].conj().T
    a = (a + a.conj().T) / 2.0
    p = q[:, :rank] @ q[:, :rank].conj().T
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / SQRT2
    t = g - p @ g @ (np.eye(n) - p)
    t /= np.linalg.norm(t, 2)
    if rank < n:
        leak = np.outer(q[:, 0], q[:, rank].conj())
        nonmember = t + leak
    else:
        nonmember = g / np.linalg.norm(g, 2)
    return a, t, nonmember


def _save(path, m):
    m = np.asarray(m, dtype=np.complex128)
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.shape[0], "cols": m.shape[1], "data": data}, fh)


def _load_matrix(text):
    d = json.loads(text)
    flat = np.array([complex(re, im) for re, im in d["data"]])
    return flat.reshape(d["rows"], d["cols"])


class ComputeWorkload:
    def __init__(self, shnr, seed, tmp, seconds):
        self.pairs = {}
        self.units = []
        for u in range(_max_units(seconds, 4.0)):
            profile = list(PROFILES)[u % len(PROFILES)]
            files = {}
            for n in NS:
                rank = PROFILES[profile](n)
                rng = np.random.default_rng(np.random.SeedSequence([seed, u, n]))
                a, t, nonmember = _pair(rng, n, rank)
                self.pairs[(u, profile, n)] = (a, t, rank < n)
                files[n] = [os.path.join(tmp, f"u{u}-{n}-{x}.json") for x in "ATN"]
                for path, m in zip(files[n], (a, t, nonmember)):
                    _save(path, m)
            unit = []
            for q in range(len(NS)):
                for r, (label, args) in enumerate(unit_ops(u)):
                    n = NS[(q + r) % len(NS)]
                    fa, ft, fn = files[n]
                    key = ((u, profile, n), label)
                    if label == "membership@T":
                        unit.append(Request(["membership", fa, ft], key))
                    elif label == "membership@N":
                        unit.append(Request(["membership", fa, fn], key,
                                            3 if self.pairs[key[0]][2] else 0))
                    else:
                        unit.append(Request(["compute", fa, ft, *args], key))
            self.units.append(unit)
        self.warmup = [r for r in self.units[0] if r.key[0][2] <= 4]

    @staticmethod
    def latencies(results):
        """Every request's time, in seconds."""
        return [res.seconds for res in results]

    def verify(self, results):
        chk = Check()
        outs = {}
        for res in results:
            chk.attempted += 1
            pair, label = res.request.key
            if res.rc != res.request.expect_rc:
                chk.fail(1, f"{label} {pair}: exit {res.rc}, expected {res.request.expect_rc}")
                continue
            chk.done += 1
            outs.setdefault(pair, {})[label] = res.out
        refs = {pair: self._reference(pair) for pair in outs}
        for res in results:
            pair, label = res.request.key
            if res.rc == res.request.expect_rc:
                try:
                    msg = self._check_one(label, res.out, outs[pair], refs[pair])
                except (ValueError, KeyError, TypeError) as exc:
                    msg = f"unreadable output {res.out[:80]!r} ({exc})"
                if msg:
                    chk.fail(1, f"{label} {pair}: {msg}")
        return chk

    def _reference(self, pair):
        a, t, singular = self.pairs[pair]
        half, half_pinv, a_pinv = oracles.psd_parts(a)
        tt = half @ t @ half_pinv
        adj = a_pinv @ t.conj().T @ a
        return {
            "norm": float(np.linalg.norm(tt, 2)),
            "w": oracles.numerical_radius(tt),
            "omega": oracles.pair_form(tt),
            "gamma_cap": math.sqrt(float(np.linalg.norm(tt @ tt.conj().T + tt.conj().T @ tt, 2))),
            "adjoint": adj,
            "re_a": (t + adj) / 2.0,
            "im_a": (t - adj) / 2.0j,
            "singular": singular,
        }

    @staticmethod
    def _check_one(label, out, got, ref):
        if label.startswith("membership"):
            member = label == "membership@T" or not ref["singular"]
            verdict = out.split(" ", 1)[0]
            return None if verdict == ("member" if member else "non-member") else f"verdict {verdict!r}"
        if label in ("adjoint", "re_a", "im_a"):
            err = oracles.mat_rel_err(_load_matrix(out), ref[label])
            return None if err <= TOL else f"matrix off by {err:.2e}"
        val = float(out)
        omega_a = float(got["omega_a"]) if "omega_a" in got else ref["w"]
        want = {
            "norm_a": ref["norm"],
            "omega_a": ref["w"],
            "alpha_norm@0": ref["norm"],
            "alpha_norm@1": omega_a,
            "big_omega": ref["omega"],
            "gen_radius@a_norm": omega_a,
            "gen_radius@a_alpha": omega_a,
            "gen_radius@big_omega": SQRT2 * omega_a,
        }.get(label)
        if want is not None:
            err = oracles.rel_err(val, want)
            return None if err <= TOL else f"{val!r} vs {want!r} (rel {err:.2e})"
        # gamma_a: Omega_A <= gamma_A <= min(sqrt(|T T# + T# T|_A), sqrt(2) |T|_A)
        lo = ref["omega"] * (1 - TOL)
        hi = min(ref["gamma_cap"], SQRT2 * ref["norm"]) * (1 + TOL)
        return None if lo <= val <= hi else f"{val!r} outside [{lo!r}, {hi!r}]"


def _max_units(seconds, unit_seconds):
    """Units to prepare: twice what a run of ``seconds`` uses at the given unit
    time; a faster machine reuses them cyclically."""
    return max(2, math.ceil(2 * seconds / unit_seconds))


WORKLOADS = {
    "catalog": CatalogWorkload,
    "compute": ComputeWorkload,
}
