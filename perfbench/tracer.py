"""Span tracer that wraps spinnet's public functions from outside the package.

``Tracer.install()`` replaces every public function (each module's
``__all__``) of ``spinnet.su2``, ``spinnet.graphs``, ``spinnet.cyl`` and
``spinnet.operators``, plus ``spinnet.cli.main``, with a timing wrapper.  The
wrapper is bound in every ``spinnet`` module namespace that held the original
function, so calls from one module into another are caught too, and in the
benchmark modules passed to ``install`` that imported it by name.

Three wrapper kinds:

* span:  records (id, name, start, end, parent id, op id) and self time;
* timed: self time and call count only, for functions called thousands of
         times per op (``wigner_entry`` and ``CylFun.__post_init__``);
* count: call count only (``su2_exp``); its time stays in the caller's self
         time.

``CylFun.__post_init__`` also counts the per-edge labels it validates; its
time is attributed to ``cyl`` rather than to whichever layer built the
function.  Self time is a span's duration minus the time covered by the
wrapped calls made directly inside it.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LIBRARY_MODULES = ("su2", "graphs", "cyl", "operators")
COUNT_ONLY = frozenset({"su2.su2_exp"})
TIMED_ONLY = frozenset({"su2.wigner_entry", "cyl.CylFun.__post_init__"})
POST_INIT = "cyl.CylFun.__post_init__"


def _observe_mc(tracer, args, kwargs, result):
    samples = kwargs.get("samples", args[2] if len(args) > 2 else 0)
    tracer.extra["cyl.mc.samples"] += int(samples)


def _observe_matrix(tracer, args, kwargs, result):
    mat = getattr(result, "matrix", result)
    tracer.extra["operators.matrix.entries"] += int(mat.size)
    tracer.extra["operators.matrix.nonzero"] += int((abs(mat) > 0).sum())


def _observe_volume(tracer, args, kwargs, result):
    if result.matrix.shape[0] > 0:
        tracer.extra["operators.volume_vertex_matrix.feasible"] += 1


OBSERVERS = {
    "cyl.mc_inner_product": _observe_mc,
    "operators.flux_matrix": _observe_matrix,
    "operators.area_matrix": _observe_matrix,
    "operators.volume_vertex_matrix": _observe_volume,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans = []
        self.op = None
        self.enabled = True
        self._stack = []  # frames: [child seconds, span id]
        self._next_id = 0
        self._op_start = None  # (start, kind, span id) of the open op span
        self._callers = ()
        self._restore = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, *callers) -> "Tracer":
        """Wrap the public functions; ``callers`` are benchmark modules whose
        own bindings of those functions are replaced as well."""
        import spinnet.cli
        import spinnet.cyl

        self._callers = callers
        for short in LIBRARY_MODULES:
            mod = sys.modules[f"spinnet.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._bind_everywhere(fn, self._wrap(f"{short}.{attr}", fn))
        self._bind_everywhere(spinnet.cli.main, self._wrap("cli.main", spinnet.cli.main))
        post_init = getattr(spinnet.cyl.CylFun, "__post_init__", None)
        if post_init is not None:
            self._restore.append((spinnet.cyl.CylFun, "__post_init__", post_init))
            spinnet.cyl.CylFun.__post_init__ = self._wrap_post_init(post_init)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _bind_everywhere(self, original, wrapper) -> None:
        spinnet = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "spinnet" or name.startswith("spinnet."))]
        for mod in spinnet + list(self._callers):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        record = name not in TIMED_ONLY
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[0]
                tracer.total_s[name] += dur
                if record:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_post_init(self, original):
        tracer = self

        def post_init(obj):
            if tracer.enabled:
                try:
                    labels = len(obj.coefficients) * obj.graph.n_edges
                except (AttributeError, TypeError):
                    labels = 0
                tracer.extra["cyl.cylfun.labels_checked"] += labels
            original(obj)

        return self._wrap(POST_INIT, post_init)

    # -- op spans ----------------------------------------------------------

    def begin_op(self, op_id, kind: str) -> None:
        """Open the root span of one op; library spans nest under it."""
        self.op = op_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([0.0, span_id])
        self._op_start = (time.perf_counter(), kind, span_id)

    def end_op(self) -> None:
        start, kind, span_id = self._op_start
        end = time.perf_counter()
        child, _ = self._stack.pop()
        name = f"op.{kind}"
        self.calls["op"] += 1
        self.total_s["op"] += end - start
        self.self_s["bench." + kind] += (end - start) - child
        self.spans.append((span_id, name, start, end, None, self.op))
        self.op = None

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "extra": dict(self.extra),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def merge_snapshots(snaps) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "total_s": defaultdict(float), "extra": defaultdict(int)}
    for snap in snaps:
        for part, acc in out.items():
            for key, value in snap[part].items():
                acc[key] += value
    return {part: dict(acc) for part, acc in out.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics from a (merged) snapshot, keyed by metric name."""
    calls = defaultdict(int, snap["calls"])
    self_s = defaultdict(float, snap["self_s"])
    total_s = defaultdict(float, snap["total_s"])
    extra = defaultdict(int, snap["extra"])

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def summed(names):
        return sum(self_s[n] for n in names)

    return {
        "cli.self_s": self_s["cli.main"],
        "su2.su2_exp.calls": calls["su2.su2_exp"],
        "cyl.holonomy.calls": calls["cyl.holonomy"],
        "cyl.holonomy.self_s": self_s["cyl.holonomy"],
        "cyl.holonomy.exp_per_call": _ratio(calls["su2.su2_exp"], calls["cyl.holonomy"]),
        "cyl.cylfun.built": calls[POST_INIT],
        "cyl.cylfun.labels_checked": extra["cyl.cylfun.labels_checked"],
        "cyl.promote.calls": calls["cyl.promote"],
        "cyl.promote.self_s": self_s["cyl.promote"],
        "cyl.self_s": layer_self("cyl"),
        "graphs.ensure_valid.calls": calls["graphs.ensure_valid"],
        "graphs.punctures.calls": calls["graphs.punctures"],
        "graphs.punctures.self_s": self_s["graphs.punctures"],
        "graphs.common_refinement.calls": calls["graphs.common_refinement"],
        "graphs.self_s": layer_self("graphs"),
        "operators.flux.self_s": summed(
            ["operators.flux_apply", "operators.flux_commutator",
             "operators.flux_commutator_closed_form"]
        ),
        "operators.matrix.self_s": summed(["operators.flux_matrix", "operators.area_matrix"]),
        "operators.matrix.nonzero_ratio": _ratio(
            extra["operators.matrix.nonzero"], extra["operators.matrix.entries"]
        ),
        "operators.volume_vertex_matrix.calls": calls["operators.volume_vertex_matrix"],
        "operators.volume_vertex_matrix.self_s": self_s["operators.volume_vertex_matrix"],
        "operators.volume_vertex_matrix.feasible_ratio": _ratio(
            extra["operators.volume_vertex_matrix.feasible"],
            calls["operators.volume_vertex_matrix"],
        ),
        "operators.spectrum.self_s": summed(
            ["operators.area_spectrum", "operators.volume_spectrum"]
        ),
        "operators.self_s": layer_self("operators"),
        "su2.intertwiner_basis.calls": calls["su2.intertwiner_basis"],
        "su2.intertwiner_basis.self_s": self_s["su2.intertwiner_basis"],
        "su2.clebsch_gordan.calls": calls["su2.clebsch_gordan"],
        "su2.clebsch_gordan.self_s": self_s["su2.clebsch_gordan"],
        "su2.wigner_entry.calls": calls["su2.wigner_entry"],
        "su2.wigner_entry.self_s": self_s["su2.wigner_entry"],
        "su2.haar.self_s": summed(
            ["su2.haar_quaternions", "su2.quaternions_to_matrices", "su2.haar_sample"]
        ),
        "cyl.mc.samples_per_s": _ratio(extra["cyl.mc.samples"], total_s["cyl.mc_inner_product"]),
        "cyl.gram.self_s": self_s["cyl.gram"],
        "su2.wigner.self_s": self_s["su2.wigner"],
        "su2.self_s": layer_self("su2"),
        "bench.self_s": layer_self("bench"),
        "trace.ops": calls["op"],
        "trace.op_s": total_s["op"],
    }
