"""Span tracing from outside the library, for the per-layer metrics.

The tracer replaces each entry point named in LAYER_ENTRIES with a wrapper
that records one span per call: name, start, end, parent span and
operation.  Methods are patched on their class.  Module functions are
patched in every latkern module that binds them, because `from .x import y`
copies the binding.  Spans stay in memory, in flat arrays, until the run
ends; call counts and self times are derived from them then.

A span's self time is its duration minus the durations of its child
spans, which never overlap because the library is single-threaded.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# metric prefix -> (module, attribute).  "Class.method" patches the method
# on its class; a bare name patches the module function wherever a latkern
# module binds it.  RatFun products and sums all funnel through
# _mul_reduced and _add_reduced, so those two carry ratfun_mul/ratfun_add.
LAYER_ENTRIES = {
    "rational.poly_gcd": ("latkern.rational", "poly_gcd"),
    "rational.ratfun_mul": ("latkern.rational", "RatFun._mul_reduced"),
    "rational.ratfun_add": ("latkern.rational", "RatFun._add_reduced"),
    "rational.laurent_coeff": ("latkern.rational", "RatFun.laurent_coeff"),
    "linalg.rank": ("latkern.linalg", "rank"),
    "linalg.solve": ("latkern.linalg", "solve"),
    "linalg.invert": ("latkern.linalg", "invert"),
    "linalg.nullspace_vector": ("latkern.linalg", "nullspace_vector"),
    "transfer.inverse": ("latkern.transfer", "TransferMatrix.inverse"),
    "transfer.rank": ("latkern.transfer", "TransferMatrix.rank"),
    "transfer.matmul": ("latkern.transfer", "TransferMatrix.__mul__"),
    "transfer.eq": ("latkern.transfer", "TransferMatrix.__eq__"),
    "transfer.classify": ("latkern.transfer", "TransferMatrix.classify"),
    "properbasis.smith": ("latkern.properbasis", "smith_at_infinity"),
    "properbasis.column_reduce": ("latkern.properbasis",
                                  "column_reduce_at_infinity"),
    "latency.latency_kernel": ("latkern.latency", "latency_kernel"),
    "latency.equivalence": ("latkern.latency", "compensation_equivalence"),
    "factor.causal_factor": ("latkern.factor", "causal_factor"),
    "polymatrix.coprime_fraction": ("latkern.polymatrix",
                                    "right_coprime_fraction"),
    "polymatrix.hermite_gcrd": ("latkern.polymatrix", "hermite_gcrd"),
    "feedback.vg_representation": ("latkern.feedback", "vg_representation"),
    "feedback.worst_case": ("latkern.feedback", "worst_case_precompensator"),
    "simulate.from_transfer": ("latkern.simulate",
                               "SeriesMatrix.from_transfer"),
    "simulate.series_mul": ("latkern.simulate", "SeriesMatrix.__mul__"),
    "simulate.series_inverse": ("latkern.simulate", "SeriesMatrix.inverse"),
    "matrixio.load": ("latkern.matrixio", "load_matrix"),
    "matrixio.to_json": ("latkern.matrixio", "matrix_to_json"),
}

# Entries reported as one layer rather than one by one.
AGGREGATES = {"linalg": ("linalg.rank", "linalg.solve", "linalg.invert",
                         "linalg.nullspace_vector")}

OP_SPAN = "cli"       # the root span of one CLI operation
NO_PARENT = -1


class Tracer:
    """Patches the library on install() and restores it on uninstall()."""

    def __init__(self):
        self.names = [OP_SPAN] + list(LAYER_ENTRIES)
        self.name_of = array("B")   # index into self.names
        self.parent = array("l")    # span index, or NO_PARENT
        self.op = array("l")        # operation index
        self.start = array("d")
        self.end = array("d")
        self.factor_yes = 0         # causal_factor calls that answered yes
        self._open = [NO_PARENT]    # stack of open span indices
        self._ops = 0
        self._restore = []

    def _enter(self, name_idx: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_idx)
        self.parent.append(self._open[-1])
        self.op.append(self._ops)
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(perf_counter())
        return sid

    def _exit(self, sid: int):
        self.end[sid] = perf_counter()
        self._open.pop()

    def operation(self, fn, *args):
        """Run one CLI operation as a root span."""
        sid = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(sid)
            self._ops += 1

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        enter, exit_ = self._enter, self._exit
        counts_yes = name == "factor.causal_factor"

        def traced(*args, **kwargs):
            sid = enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid)
            if counts_yes:
                self.factor_yes += bool(result.decision)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "latkern" or n.startswith("latkern.")]
        for name, (modname, path) in LAYER_ENTRIES.items():
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patch(cls, attr, patched)
            else:
                original = getattr(module, path)
                patched = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, path, None) is original:
                        self._patch(mod, path, patched)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """name -> (calls, self seconds, inclusive seconds).

        Inclusive time counts a span only when no ancestor has the same
        name, so recursion is not counted twice.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for sid in range(n):
            if self.parent[sid] != NO_PARENT:
                covered[self.parent[sid]] += dur[sid]
        k = len(self.names)
        calls, self_s, incl = [0] * k, [0.0] * k, [0.0] * k
        for sid in range(n):
            idx = self.name_of[sid]
            calls[idx] += 1
            self_s[idx] += dur[sid] - covered[sid]
            p = self.parent[sid]
            while p != NO_PARENT and self.name_of[p] != idx:
                p = self.parent[p]
            if p == NO_PARENT:
                incl[idx] += dur[sid]
        out = {name: (calls[i], self_s[i], incl[i])
               for i, name in enumerate(self.names)}
        for agg, parts in AGGREGATES.items():
            out[agg] = tuple(sum(out[p][f] for p in parts) for f in range(3))
        return out

    def write_spans(self, path: str):
        """All spans as parallel arrays; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self.name_of.tolist(),
                       "parent": self.parent.tolist(),
                       "op": self.op.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)
