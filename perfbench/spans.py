"""In-memory span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files around the public
functions of each ncspheres module; nothing under src/ changes.  A wrapper
replaces the original in every loaded ncspheres module that binds it, since
modules such as ``cli`` import functions by name.

Each thread keeps its own span stack (``cli.sweep`` runs a thread pool).  A
span's self time is its duration minus the time its direct child spans
cover, computed as the stack unwinds.  Functions called thousands to a
million times per run (``pair_product``, ``reduce_mono``,
``hopf_delta_gen``) are "hot": they still count towards their parent's
child time, but are aggregated per thread into (calls, hits, total, self)
rather than kept as one span each, so the trace does not add a span per
call to the memory being measured.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans and hot-call aggregates; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (id, name, thread, start, end, parent id, self s)
        self.chain_terms = 0
        self.rtensors = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggs = []
        self._lock = threading.Lock()
        self._installed = []

    # -- per-thread state ---------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _agg(self):
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = defaultdict(lambda: [0, 0, 0.0, 0.0])
            with self._lock:
                self._aggs.append(agg)
        return agg

    # -- wrapping -----------------------------------------------------

    def wrap(self, name, fn, hot=False, probe=None, on_result=None):
        """Return fn wrapped in a span named `name`.

        probe(*args) is evaluated before the call on hot wrappers and counts
        a hit when true; on_result(result) sees every return value.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            hit = probe(*args) if probe is not None else False
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                self_s = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hot:
                    row = tracer._agg()[name]
                    row[0] += 1
                    row[1] += bool(hit)
                    row[2] += dur
                    row[3] += self_s
                else:
                    parent = stack[-1][0] if stack else None
                    tracer.spans.append((frame[0], name, threading.get_ident(),
                                         start, end, parent, self_s))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install_function(self, module, attr, name, **kw):
        """Wrap module.attr and rebind it in every ncspheres module binding it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ncspheres"
                                   or mod_name.startswith("ncspheres.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._installed.append((mod, key, original))

    def install_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **kw))
        self._installed.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results ------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name, summed over calls and threads."""
        out = defaultdict(float)
        for _id, name, _thread, _start, _end, _parent, self_s in self.spans:
            out[name] += self_s
        for agg in self._aggs:
            for name, row in agg.items():
                out[name] += row[3]
        return dict(out)

    def hot_counts(self) -> dict:
        """{name: (calls, hits)} over every thread."""
        out = defaultdict(lambda: [0, 0])
        for agg in self._aggs:
            for name, row in agg.items():
                out[name][0] += row[0]
                out[name][1] += row[1]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write spans, then hot aggregates, as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                sid, name, thread, start, end, parent, self_s = span
                fh.write(json.dumps({"id": sid, "name": name, "thread": thread,
                                     "start": start, "end": end,
                                     "parent": parent, "self_s": self_s}) + "\n")
            for agg in self._aggs:
                for name, (calls, hits, total, self_s) in sorted(agg.items()):
                    fh.write(json.dumps({"hot": name, "calls": calls,
                                         "hits": hits, "total_s": total,
                                         "self_s": self_s}) + "\n")


# (module, attribute, span name) of every traced public function
FUNCTIONS = (
    ("rmatrix", "build_R_quaternionic", "rmatrix.build_R_quaternionic"),
    ("rmatrix", "check_reality", "rmatrix.check_reality"),
    ("rmatrix", "check_symmetry_chain", "rmatrix.check_symmetry_chain"),
    ("rmatrix", "check_quadratic_1", "rmatrix.check_quadratic_1"),
    ("rmatrix", "check_quadratic_2", "rmatrix.check_quadratic_2"),
    ("rmatrix", "check_involutive", "rmatrix.check_involutive"),
    ("rmatrix", "check_yang_baxter", "rmatrix.check_yang_baxter"),
    ("ncalg", "confluence_check", "ncalg.confluence_check"),
    ("spheres", "build_sphere", "ncalg.echelon_build"),
    ("spheres", "three_sphere_context", "ncalg.echelon_build"),
    ("spheres", "projection_checks", "spheres.projection_checks"),
    ("spheres", "verify_Y_relations", "spheres.verify_Y_relations"),
    ("spheres", "lambda_reports", "spheres.lambda_reports"),
    ("spheres", "suspension_reports", "spheres.suspension_reports"),
    ("homology", "chain_from_slots", "homology.chain_from_slots"),
    ("homology", "trace_chain", "homology.trace_chain"),
    ("homology", "b_boundary", "homology.b_boundary"),
    ("homology", "B_boundary", "homology.B_boundary"),
    ("coaction", "check_hopf_axioms", "coaction.check_hopf_axioms"),
    ("coaction", "check_comodule_algebra", "coaction.check_comodule_algebra"),
    ("coaction", "coinvariant_report", "coaction.coinvariant_report"),
    ("coaction", "derivation_reports", "coaction.derivation_reports"),
    ("coaction", "canonical_witness", "coaction.canonical_witness"),
    ("coaction", "hopf_delta_gen", "coaction.hopf_delta_gen"),
    ("cli", "canonical_json", "cli.canonical_json"),
)

_HOT = {"coaction.hopf_delta_gen"}
_CHAIN_PRODUCERS = {"homology.chain_from_slots", "homology.trace_chain",
                    "homology.b_boundary", "homology.B_boundary"}


def install_all(tracer: Tracer) -> None:
    """Wrap every traced function and method of the loaded package."""
    import importlib

    mods = {m: importlib.import_module(f"ncspheres.{m}")
            for m in ("rmatrix", "ncalg", "spheres", "homology", "coaction",
                      "cli")}

    def add_terms(chain):
        tracer.chain_terms += chain.n_terms()

    for mod, attr, name in FUNCTIONS:
        kw = {"hot": name in _HOT}
        if name in _CHAIN_PRODUCERS:
            kw["on_result"] = add_terms
        elif name == "rmatrix.build_R_quaternionic":
            kw["on_result"] = tracer.rtensors.append
        tracer.install_function(mods[mod], attr, name, **kw)
    homology = mods["homology"]
    tracer.install_method(
        homology.ChainContext, "pair_product", "homology.pair_product",
        hot=True, probe=lambda ctx, i, j: (i, j) in ctx._pair_cache)
    tracer.install_method(homology.TensorChain, "digest", "homology.digest")
    tracer.install_method(mods["ncalg"].ReductionContext, "reduce_mono",
                          "ncalg.reduce_mono", hot=True)


def layer_metrics(tracer: Tracer, task_timings: dict) -> dict:
    """Per-layer metric values (without units) from one traced run."""
    self_s = tracer.self_times()
    hot = tracer.hot_counts()
    out = {}
    for name in ("rmatrix.check_reality", "rmatrix.check_symmetry_chain",
                 "rmatrix.check_quadratic_1", "rmatrix.check_quadratic_2",
                 "rmatrix.check_involutive", "rmatrix.check_yang_baxter",
                 "ncalg.confluence_check", "ncalg.echelon_build",
                 "ncalg.reduce_mono", "spheres.projection_checks",
                 "spheres.verify_Y_relations", "spheres.lambda_reports",
                 "spheres.suspension_reports", "homology.trace_chain",
                 "homology.b_boundary", "homology.B_boundary",
                 "homology.digest", "coaction.check_hopf_axioms",
                 "coaction.check_comodule_algebra",
                 "coaction.coinvariant_report", "coaction.derivation_reports",
                 "coaction.canonical_witness", "cli.canonical_json"):
        out[name + "_s"] = self_s.get(name, 0.0)
    out["rmatrix.nonzeros"] = sum(len(R.items()) for R in tracer.rtensors)
    out["ncalg.reduce_mono_calls"] = hot.get("ncalg.reduce_mono", (0, 0))[0]
    calls, hits = hot.get("homology.pair_product", (0, 0))
    out["homology.pair_product_calls"] = calls
    out["homology.pair_product_hit_ratio"] = hits / calls if calls else 0.0
    out["homology.chain_terms"] = tracer.chain_terms
    out["coaction.hopf_delta_gen_calls"] = hot.get("coaction.hopf_delta_gen",
                                                   (0, 0))[0]
    for task in ("conditions", "algebra", "sphere", "chern", "coaction"):
        out[f"cli.task_{task}_s"] = task_timings.get(task, 0.0)
    return out
