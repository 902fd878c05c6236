"""Span tracer installed from outside the program.

The tracer wraps named posmap functions at every module attribute that
binds them (posmap modules import names directly, so patching the defining
module alone would miss most calls), plus the ``numpy.linalg`` entry points
and ``numpy.einsum``. Kernel calls are recorded only when the caller is a
posmap module, so the benchmark's own numpy work is never counted.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once, when the run ends. Self time is a span's duration minus the
union of the intervals its direct child spans cover. Threads started by
posmap (the falsifier's restart pool) begin with an empty stack; their
top-level spans take as parent the innermost span open on the main thread,
which is the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, module, attribute); methods are patched on their class
FUNCTIONS = [
    ("linalg.op_norm", "posmap.linalg", "op_norm"),
    ("linalg.psd_min_eig", "posmap.linalg", "psd_min_eig"),
    ("positivity.falsify", "posmap.positivity", "k_positivity_falsify"),
    ("positivity.is_cp", "posmap.positivity", "is_cp"),
    ("positivity.witness_verify", "posmap.positivity", "witness_verify"),
    ("orderzero.order_zero_defect", "posmap.orderzero", "order_zero_defect"),
    ("orderzero.oz_decompose", "posmap.orderzero", "oz_decompose"),
    ("family.verify", "posmap.family", "verify_corner_family"),
    ("certificates.verify", "posmap.certificates", "verify_certificate"),
    ("certificates.load", "posmap.certificates", "load_certificate"),
    ("certificates.save", "posmap.certificates", "save_certificate"),
    ("cli.main", "posmap.cli", "main"),
]

KERNELS = ["eigh", "eigvalsh", "svd", "qr", "einsum"]

# every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("kernel.eigh.calls", "count"),
    ("kernel.eigh.s", "s"),
    ("kernel.eigh.gflop_computed", "Gflop"),
    ("kernel.einsum.calls", "count"),
    ("kernel.einsum.s", "s"),
    ("kernel.qr.calls", "count"),
    ("kernel.svd.calls", "count"),
    ("kernel.svd.s", "s"),
    ("kernel.svd.gflop_computed", "Gflop"),
    ("kernel.eigvalsh.calls", "count"),
    ("kernel.eigvalsh.s", "s"),
    ("linalg.op_norm.calls", "count"),
    ("linalg.op_norm.s", "s"),
    ("linalg.psd_min_eig.calls", "count"),
    ("algebra.element_new.calls", "count"),
    ("algebra.element_new.s", "s"),
    ("maps.apply.calls", "count"),
    ("maps.apply.s", "s"),
    ("maps.from_action.calls", "count"),
    ("maps.from_action.s", "s"),
    ("positivity.falsify.calls", "count"),
    ("positivity.falsify.self_s", "s"),
    ("positivity.restarts", "count"),
    ("positivity.eigh_per_restart", "calls/restart"),
    ("positivity.is_cp.s", "s"),
    ("positivity.witness_verify.s", "s"),
    ("orderzero.order_zero_defect.s", "s"),
    ("orderzero.oz_decompose.s", "s"),
    ("family.verify.self_s", "s"),
    ("family.samples", "count"),
    ("certificates.verify.self_s", "s"),
    ("certificates.load.s", "s"),
    ("certificates.save.s", "s"),
    ("certificates.bytes", "B"),
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
]

# spans whose self time is reported
_SELF_SPANS = ("positivity.falsify", "family.verify", "certificates.verify")


def _flops(kind: str, shape: tuple, dtype, compute_uv: bool = True) -> float:
    """Real-equivalent flop count of one LAPACK call, from its operand shape.

    Golub and Van Loan's counts: Hermitian eigensolver 9n^3 with vectors and
    4n^3/3 without; SVD 4m^2n + 8mn^2 + 9n^3 with vectors and 4mn^2 - 4n^3/3
    without (m >= n). Complex arithmetic counts four real flops per
    operation. Stacked operands multiply by the batch size.
    """
    if len(shape) < 2:
        return 0.0
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    scale = 4.0 if np.issubdtype(dtype, np.complexfloating) else 1.0
    if kind == "eigh":
        n = shape[-1]
        return batch * scale * 9.0 * n**3
    if kind == "eigvalsh":
        n = shape[-1]
        return batch * scale * (4.0 / 3.0) * n**3
    m, n = max(shape[-2:]), min(shape[-2:])
    if compute_uv:
        return batch * scale * (4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3)
    return batch * scale * (4.0 * m * n * n - (4.0 / 3.0) * n**3)


class Tracer:
    """Collects spans and counters while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()

    # -- span bookkeeping --------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> tuple[list, int]:
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            return stack, (stack[-1] if stack else -1)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        main = self._main_stack
        return stack, (main[-1] if main else -1)

    def span(self, name_id: int, fn, args, kwargs):
        stack, parent = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            with self._lock:
                self.span_id.append(sid)
                self.span_name.append(name_id)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(parent)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.span(name_id, fn, args, kwargs)
            if after is not None:
                key, value = after(args, result)
                tracer.counters[key] += value
            return result

        return wrapper

    def _wrap_kernel(self, kind: str, fn):
        name_id = self._name_id(f"kernel.{kind}")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or not _called_from_posmap():
                return fn(*args, **kwargs)
            if kind in ("eigh", "eigvalsh", "svd") and args:
                a = np.asarray(args[0])
                uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                tracer.counters[f"kernel.{kind}.flop"] += _flops(kind, a.shape, a.dtype, bool(uv))
            return tracer.span(name_id, fn, args, kwargs)

        return wrapper

    def _wrap_norm(self, fn):
        """norm(x, 2) of a matrix is a singular-value solve: count it as svd."""
        name_id = self._name_id("kernel.svd")
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if (
                not tracer.active
                or ord != 2
                or np.ndim(x) < 2
                or not _called_from_posmap()
            ):
                return fn(x, ord, *args, **kwargs)
            a = np.asarray(x)
            tracer.counters["kernel.svd.flop"] += _flops("svd", a.shape, a.dtype, False)
            return tracer.span(name_id, fn, (x, ord) + args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever posmap binds it."""
        import posmap.algebra
        import posmap.maps

        modules = [m for n, m in sys.modules.items() if n == "posmap" or n.startswith("posmap.")]
        for span_name, mod_name, attr in FUNCTIONS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(span_name, orig, _AFTER.get(span_name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        element = posmap.algebra.Element
        element.__init__ = self._wrap("algebra.element_new", element.__init__)
        pmap = posmap.maps.PMap
        pmap.apply = self._wrap("maps.apply", pmap.apply)
        from_action = pmap.__dict__["from_action"].__func__
        pmap.from_action = classmethod(self._wrap("maps.from_action", from_action))

        for kind in KERNELS:
            owner = np if kind == "einsum" else np.linalg
            setattr(owner, kind, self._wrap_kernel(kind, getattr(owner, kind)))
        np.linalg.norm = self._wrap_norm(np.linalg.norm)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.span_id, dtype=np.int64),
            np.array(self.span_name, dtype=np.int32),
            np.array(self.span_start, dtype=np.float64),
            np.array(self.span_end, dtype=np.float64),
            np.array(self.span_parent, dtype=np.int64),
        )

    def raw_totals(self) -> dict:
        """Additive totals: calls and inclusive seconds per span name, self
        seconds of the analysis spans, counters, and eigh calls made under a
        falsifier span."""
        ids, names, start, end, parent = self._arrays()
        dur = end - start
        out: dict = dict(self.counters)
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.s"] = float(dur[mask].sum())
        for span_name in _SELF_SPANS:
            out[f"{span_name}.self_s"] = self._self_time(span_name, ids, names, start, end, parent)
        out["positivity.falsify.eigh"] = self._eigh_under_falsify(ids, names, parent)
        return out

    def _self_time(self, name, ids, names, start, end, parent) -> float:
        if name not in self._name_ids:
            return 0.0
        nid = self._name_ids[name]
        total = 0.0
        order = np.argsort(parent, kind="stable")
        sorted_parent = parent[order]
        for idx in np.flatnonzero(names == nid):
            lo = np.searchsorted(sorted_parent, ids[idx], "left")
            hi = np.searchsorted(sorted_parent, ids[idx], "right")
            kids = order[lo:hi]
            covered = _union_length(start[kids], end[kids])
            total += (end[idx] - start[idx]) - covered
        return float(total)

    def _eigh_under_falsify(self, ids, names, parent) -> int:
        if "positivity.falsify" not in self._name_ids or "kernel.eigh" not in self._name_ids:
            return 0
        order = np.argsort(ids)
        pos = np.clip(np.searchsorted(ids[order], parent), 0, max(len(ids) - 1, 0))
        has_parent = (parent >= 0) & (ids[order][pos] == parent)
        parent_idx = np.where(has_parent, order[pos], 0)
        under = names == self._name_ids["positivity.falsify"]
        while True:  # one pass per tree level
            grown = under | (has_parent & under[parent_idx])
            if np.array_equal(grown, under):
                break
            under = grown
        return int((under & (names == self._name_ids["kernel.eigh"])).sum())

    def write_spans(self, path: str) -> None:
        ids, names, start, end, parent = self._arrays()
        tmp = path + ".tmp.npz"
        np.savez(tmp, id=ids, name=names, start=start, end=end, parent=parent,
                 names=np.array(self.names))
        os.replace(tmp, path)


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the intervals [start_i, end_i]."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start)
    s, e = start[order], end[order]
    reach = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
    return float(np.maximum(0.0, e - np.maximum(s, reach)).sum())


def _called_from_posmap() -> bool:
    name = sys._getframe(2).f_globals.get("__name__", "")
    return name == "posmap" or name.startswith("posmap.")


# counters read from a traced call's arguments or result
_AFTER = {
    "positivity.falsify": lambda args, verdict: ("positivity.restarts", verdict.restarts_used),
    "family.verify": lambda args, report: ("family.samples", report.samples),
    "certificates.save": lambda args, _: ("certificates.bytes", os.path.getsize(args[1])),
    "certificates.load": lambda args, _: ("certificates.bytes", os.path.getsize(args[0])),
}


def merge_totals(parts: list[dict]) -> dict:
    """Sum the additive totals of several processes."""
    out: Counter = Counter()
    for part in parts:
        for key, val in part.items():
            out[key] += val
    return dict(out)


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics in BENCHMARK.json form, from additive totals."""
    restarts = totals.get("positivity.restarts", 0)
    derived = {
        "kernel.eigh.gflop_computed": totals.get("kernel.eigh.flop", 0.0) / 1e9,
        "kernel.svd.gflop_computed": totals.get("kernel.svd.flop", 0.0) / 1e9,
        "positivity.eigh_per_restart": (
            totals.get("positivity.falsify.eigh", 0) / restarts if restarts else 0.0
        ),
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        value = derived[name] if name in derived else totals.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
