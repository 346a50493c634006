"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces a public function by a recording wrapper in
every loaded ``artin_sigma`` module whose global of that name is the
function, so calls the package makes through its module globals (for
example ``polyhedron.subsphere_contained`` inside ``complement_polyhedron``)
are seen as well as the benchmark's own calls.  ``uninstall`` puts the
originals back.  Untraced runs never import this module.

A span is (id, parent id, job id, name, start ns, end ns, size).  ``size``
is an optional number taken from the call, such as the length of a
returned list.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer.function -> (module, function name, size of the call or None).
# Only functions a per-layer metric needs are wrapped: a wrapped callee is
# subtracted from its caller's self time, and every wrapper costs time.
WRAPPED = {
    "graphs.full_subgraph": ("graphs", "full_subgraph", None),
    "graphs.is_connected": ("graphs", "is_connected", None),
    "graphs.is_dominant": ("graphs", "is_dominant", None),
    "graphs.cycle_rank": ("graphs", "cycle_rank", None),
    "graphs.check_hypothesis": ("graphs", "check_hypothesis", None),
    "characters.lf_subgraph": ("characters", "lf_subgraph", None),
    "characters.living_subgraph": ("characters", "living_subgraph", None),
    "decision.decide_sigma1": ("decision", "decide_sigma1", None),
    "polyhedron.complement_polyhedron": (
        "polyhedron", "complement_polyhedron", lambda args, out: len(out.pieces)),
    "polyhedron.dominance_pieces": ("polyhedron", "dominance_pieces", lambda args, out: len(out)),
    "polyhedron.disconnection_pieces": (
        "polyhedron", "disconnection_pieces", lambda args, out: len(out)),
    "polyhedron.subsphere_contained": ("polyhedron", "subsphere_contained", None),
    "polyhedron.polyhedron_contains": ("polyhedron", "polyhedron_contains", None),
    "presentations.forest_presentation": ("presentations", "forest_presentation", None),
    "presentations.specialization_data": ("presentations", "specialization_data", None),
    "presentations.specialize": ("presentations", "specialize", None),
    "presentations.certify_not_finitely_generated": (
        "presentations", "certify_not_finitely_generated",
        lambda args, out: out.conclusion == "not_finitely_generated"),
    "linalg.matrix_rank": (
        "linalg", "matrix_rank", lambda args, out: args[0].nrows * args[0].ncols),
    "groebner.buchberger": ("groebner", "buchberger", lambda args, out: len(out)),
    "groebner.s_polynomial": ("groebner", "s_polynomial", None),
    "groebner.reduce_poly": ("groebner", "reduce_poly", None),
    "groebner.laurent_unit_ideal": (
        "groebner", "laurent_unit_ideal", lambda args, out: bool(out[0])),
    "groebner.unit_ideal_mod_p": ("groebner", "unit_ideal_mod_p", None),
}


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED) + ["job"]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.cols = {c: array("q") for c in ("id", "parent", "job", "name", "start", "end", "size")}
        self.stack = []
        self.job = -1
        self.next_id = 0
        self.replaced = []

    def _record(self, sid, parent, name_id, start, end, size):
        c = self.cols
        c["id"].append(sid)
        c["parent"].append(parent)
        c["job"].append(self.job)
        c["name"].append(name_id)
        c["start"].append(start)
        c["end"].append(end)
        c["size"].append(size)

    def _wrap(self, name, fn, size_of):
        name_id = self.name_id[name]
        clock = time.perf_counter_ns
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                size = int(size_of(args, out)) if size_of is not None and out is not None else -1
                self._record(sid, parent, name_id, start, end, size)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "artin_sigma" or k.startswith("artin_sigma."))]
        for name, (module, attr, size_of) in WRAPPED.items():
            original = getattr(sys.modules[f"artin_sigma.{module}"], attr)
            wrapper = self._wrap(name, original, size_of)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self.replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.replaced):
            setattr(mod, attr, original)
        self.replaced = []

    def job_span(self, corpus_index: int, fn, *args):
        """Run fn(*args) as the next job: one root span, whose size is the
        job's index in the corpus; wrapped calls inside it carry its id."""
        self.job += 1
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self._record(sid, -1, self.name_id["job"], start, end, corpus_index)

    # -- analysis ------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, inclusive and self seconds, size total/max.

        Self time is a span's duration minus the durations of its direct
        children; spans nest without overlap because runs are single
        threaded, so this is the time the function's own code ran."""
        c = self.cols
        n = len(c["id"])
        child_ns = {}
        for k in range(n):
            p = c["parent"][k]
            if p >= 0:
                child_ns[p] = child_ns.get(p, 0) + c["end"][k] - c["start"][k]
        out = {}
        for k in range(n):
            name = self.names[c["name"][k]]
            dur = c["end"][k] - c["start"][k]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "size_sum": 0, "size_max": 0})
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns.get(c["id"][k], 0)) / 1e9
            size = c["size"][k]
            if size >= 0:
                row["size_sum"] += size
                row["size_max"] = max(row["size_max"], size)
        return out

    def write(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        c = self.cols
        n = len(c["id"])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k in range(n):
                fh.write(json.dumps({
                    "id": c["id"][k], "parent": c["parent"][k], "job": c["job"][k],
                    "name": self.names[c["name"][k]], "start_ns": c["start"][k],
                    "end_ns": c["end"][k], "size": c["size"][k],
                }, separators=(",", ":")) + "\n")
        return n
