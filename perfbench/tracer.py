"""Per-layer tracing of shnr from outside its source.

The tracer replaces public functions of the shnr modules with wrappers
that record a span per call: layer name, parent span, start and end.  A
function is replaced in every module namespace that holds it, because
``verify`` and ``shnr/__init__`` import several of them by name.  Spans are
kept in memory, one list per thread, and turned into per-layer numbers
only when the run is over.  A layer's self time is its span duration
minus the durations of its direct child spans on the same thread.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
import threading
import time

import numpy as np

# layer name -> (module, attribute) pairs whose calls count as that layer
LAYERS = {
    "cli.load_matrix": [("shnr.serialize", "load_matrix")],
    "cli.dump_report": [("shnr.serialize", "dump_report")],
    "verify.generate": [
        ("shnr.verify", name)
        for name in (
            "random_psd", "random_member", "random_a_selfadjoint",
            "random_a_positive", "random_a_normal", "random_a_unitary",
            "random_nilpotent",
        )
    ],
    "radius.omega_a": [("shnr.radius", "omega_a_fast")],
    "radius.generalized_radius": [("shnr.radius", "generalized_radius")],
    "semihilbert.build_context": [("shnr.semihilbert", "build_context")],
    "semihilbert.membership": [
        ("shnr.semihilbert", name)
        for name in ("require_member", "is_member", "membership_residual")
    ],
    "semihilbert.compress": [("shnr.semihilbert", "compress")],
    "semihilbert.adjoint": [
        ("shnr.semihilbert", name) for name in ("a_adjoint", "re_a", "im_a")
    ],
    "semihilbert.a_operator_norm": [("shnr.semihilbert", "a_operator_norm")],
    "seminorms.pair_form": [("shnr.seminorms", "big_omega_pair_form")],
    "seminorms.gamma_a": [("shnr.seminorms", "gamma_a")],
    "linalg.spectral_norm": [("shnr.linalg", "spectral_norm")],
    "linalg.lapack": [("numpy.linalg", name) for name in ("eigvalsh", "eigh", "svd")],
}
# descriptor factories whose returned evaluators count as the layer
FACTORY_LAYERS = {
    "seminorms.big_omega": ("shnr.seminorms", "big_omega_seminorm"),
    "seminorms.alpha": ("shnr.seminorms", "a_alpha_seminorm"),
}
SUP_LAYER = "radius.sup_on_circle"
EVALUATE_LAYER = "verify.evaluate"
OBJECTIVE_COUNTER = "radius.objective_evals"
MATRICES_COUNTER = "linalg.lapack.matrices"
CALL_LAYERS = list(LAYERS) + list(FACTORY_LAYERS) + [SUP_LAYER]


class Tracer:
    """Wraps shnr functions in place; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._threads = []     # (spans, counters) of every thread that traced
        self._patched = []     # (namespace, attribute, original)

    # -- recording --------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = ([], [], collections.Counter())   # spans, stack, counters
            self._local.state = state
            self._threads.append((state[0], state[2]))
            return state

    def counters(self):
        return self._state()[2]

    def wrap(self, fn, name, on_call=None):
        nid = self._id(name)
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, counters = state()
            if on_call is not None:
                on_call(counters, args)
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "shnr" or mod_name.startswith("shnr.")
                                   or mod_name == "numpy.linalg"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer, targets in LAYERS.items():
            on_call = _count_matrices if layer == "linalg.lapack" else None
            for mod_name, attr in targets:
                fn = getattr(sys.modules[mod_name], attr)
                self._replace_everywhere(fn, self.wrap(fn, layer, on_call))
        for layer, (mod_name, attr) in FACTORY_LAYERS.items():
            factory = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(factory, self._wrap_factory(factory, layer))
        radius = sys.modules["shnr.radius"]
        sup = radius.sup_on_circle
        self._replace_everywhere(sup, self.wrap(self._count_objective(sup), SUP_LAYER))
        verify = sys.modules["shnr.verify"]
        self._replace_everywhere(verify.catalog, self._wrap_catalog(verify.catalog))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap_factory(self, factory, layer):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            desc = factory(*args, **kwargs)
            return dataclasses.replace(desc, evaluate=self.wrap(desc.evaluate, layer))

        return traced_factory

    def _wrap_catalog(self, catalog):
        @functools.wraps(catalog)
        def traced_catalog(*args, **kwargs):
            return [
                dataclasses.replace(spec, evaluator=self.wrap(spec.evaluator, EVALUATE_LAYER))
                for spec in catalog(*args, **kwargs)
            ]

        return traced_catalog

    def _count_objective(self, sup_on_circle):
        counters = self.counters

        @functools.wraps(sup_on_circle)
        def counted_sup(f, *args, **kwargs):
            own = counters()

            def objective(x):
                own[OBJECTIVE_COUNTER] += 1
                return f(x)

            return sup_on_circle(objective, *args, **kwargs)

        return counted_sup

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per layer: calls, self seconds and total seconds; plus counters."""
        calls = collections.Counter()
        self_s = collections.Counter()
        total_s = collections.Counter()
        counters = collections.Counter()
        for spans, thread_counters in self._threads:
            child = [0.0] * len(spans)
            for nid, parent, t0, t1 in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (nid, _, t0, t1) in enumerate(spans):
                name = self.names[nid]
                calls[name] += 1
                self_s[name] += (t1 - t0) - child[i]
                total_s[name] += t1 - t0
            counters.update(thread_counters)
        return calls, self_s, total_s, counters

    def calls_within(self, prefix, names):
        """For each span named ``prefix...``: its name and the calls of each of
        ``names`` (on any thread) that started while it was open."""
        records = [
            (self.names[nid], t0, t1)
            for spans, _ in self._threads
            for nid, _, t0, t1 in spans
        ]
        starts = [(name, t0) for name, t0, _ in records if name in names]
        return [
            (name, collections.Counter(n for n, s in starts if t0 <= s <= t1))
            for name, t0, t1 in records
            if name.startswith(prefix)
        ]


def _count_matrices(counters, args):
    shape = np.shape(args[0]) if args else ()
    counters[MATRICES_COUNTER] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
