"""Span tracing of cleanmat, installed from outside the package.

``Tracer.install`` wraps every public function of every ``cleanmat`` module
and rebinds the wrapper in each module namespace that bound the original
(so ``factor.det`` and ``matrices.det`` both record).  A few methods are
wrapped too: ``SquareMatrix.__matmul__`` and ``Ring.classify`` as spans, and
the ``Element`` operators ``+ - * neg ==`` as bare counters.

Each span is (name, start, end, parent) in parallel arrays, kept in memory
and written by ``dump``.  ``summary`` folds the spans into raw per-layer
sums; ``layer_metrics`` turns raw sums into the per-layer metrics.  The
module imports only the standard library, so a traced CLI child pays no
extra import cost for it.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time

# metric group -> qualified names ("<module>.<function>") whose spans it sums
GROUPS = {
    "rings.build": ["rings.build_ring"],
    "rings.classify": ["rings.Ring.classify"],
    "polys.divide": ["polys.monic_divide"],
    "factor.search": [
        "factor.src_search",
        "factor.sp_search",
        "factor.gsrc_search",
        "factor.gsp_search",
        "factor.src_search_local",
        "factor.sp_search_local",
    ],
    "factor.rational_roots": ["factor.rational_roots"],
    "factor.comax": ["factor.comaximality"],
    "matrices.char_poly": ["matrices.char_poly"],
    "matrices.inverse": ["matrices.inverse"],
    "matrices.matmul": ["matrices.SquareMatrix.__matmul__"],
    "matrices.similar": ["matrices.random_with_charpoly"],
    "intlinalg.solve": ["intlinalg.solve_mod", "intlinalg.solve_zloc"],
    "brute.scan": ["_kernels.scan_strongly_clean"],
    "brute.oracle": ["brute.pi_regular_oracle", "brute.pi_regular_bruteforce"],
    "verify": [
        "verify.verify_src",
        "verify.verify_sp",
        "verify.verify_gsrc",
        "verify.verify_gsp",
        "verify.verify_strong_clean",
        "verify.verify_pi_regular",
    ],
    "decide.construct": [
        "decide.strong_clean_from_gsrc",
        "decide.pi_regular_from_gsp",
        "decide.strong_clean_triangular",
    ],
    "serialize.dumps": ["serialize.dumps_canonical"],
    "quadz5.audit": ["quadz5.run_audit"],
    "cli.main": ["cli.main"],
}


def _kernel_candidates(result, args):
    start, stop = args[10], args[11]
    return result - start + 1 if result >= 0 else stop - start


# per-span value recorded from a call's result: a useful outcome (1/0) or a size
VALUES = {
    "polys.monic_divide": lambda r, a: 1 if r[2] else 0,
    "factor.comaximality": lambda r, a: 0 if r is None else 1,
    "_kernels.scan_strongly_clean": _kernel_candidates,
    "serialize.dumps_canonical": lambda r, a: len(r.encode()),
}
for _name in GROUPS["factor.search"]:
    VALUES[_name] = lambda r, a: 1 if r.status == "found" else 0
for _name in GROUPS["verify"]:
    VALUES[_name] = lambda r, a: 1 if r else 0

ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__eq__")
SPAN_METHODS = (("matrices", "SquareMatrix", "__matmul__"), ("rings", "Ring", "classify"))


def _modules():
    import cleanmat

    mods = {"__init__": cleanmat}
    for info in pkgutil.iter_modules(cleanmat.__path__):
        mods[info.name] = importlib.import_module(f"cleanmat.{info.name}")
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self.stack: list[int] = []
        self.elem_ops = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers -------------------------------------------------------------------

    def _span(self, qualname: str, fn):
        tr = self
        fid = len(tr.names)
        tr.names.append(qualname)
        value_of = VALUES.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_of.append(fid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.value.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.stack.pop()
            if value_of is not None:
                tr.value[idx] = value_of(result, args)
            return result

        return traced

    def _counter(self, fn):
        tr = self

        @functools.wraps(fn)
        def counted(*args):
            tr.elem_ops += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr), new))

    def _build(self):
        """Make every wrapper once; ``install`` and ``uninstall`` only rebind."""
        mods = _modules()
        wrapped = {}
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("__")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("cleanmat")
                    or obj.__name__.startswith("_")
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                if id(obj) not in wrapped:
                    qual = f"{obj.__module__.removeprefix('cleanmat.')}.{obj.__name__}"
                    wrapped[id(obj)] = self._span(qual, obj)
                self._patch(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth in SPAN_METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._span(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        element = mods["rings"].Element
        for op in ELEMENT_OPS:
            self._patch(element, op, self._counter(getattr(element, op)))

    def install(self):
        """Wrap every public cleanmat function in every namespace binding it."""
        if not self._patches:
            self._build()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def active(self, enabled: bool = True):
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-layer sums: outermost calls, inclusive and self seconds, values."""
        group_bit = {}
        bit_of_name = []
        for q in self.names:
            g = next((g for g, qs in GROUPS.items() if q in qs), None)
            if g is not None and g not in group_bit:
                group_bit[g] = 1 << len(group_bit)
            bit_of_name.append(group_bit.get(g, 0))
        bits = {b: g for g, b in group_bit.items()}
        n = len(self.start)
        child = [0.0] * n
        above = [0] * n  # bitmask of metric groups among a span's ancestors
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                above[i] = above[p] | bit_of_name[self.name_of[p]]
        raw: dict[str, float] = {"rings.elem_ops": float(self.elem_ops), "decide.self_s": 0.0}
        for g in GROUPS:
            for k in ("calls", "s", "self_s", "value"):
                raw[f"{g}.{k}"] = 0.0
        for i in range(n):
            fid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            if self.names[fid].startswith("decide."):
                raw["decide.self_s"] += own
            b = bit_of_name[fid]
            if not b:
                continue
            g = bits[b]
            raw[f"{g}.self_s"] += own
            if not above[i] & b:
                raw[f"{g}.calls"] += 1
                raw[f"{g}.s"] += dur
                raw[f"{g}.value"] += self.value[i]
        raw["spans"] = float(n)
        return raw

    def dump(self, path, extra: dict):
        doc = {
            **extra,
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "value": self.value.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def add_raw(total: dict, raw: dict):
    for k, v in raw.items():
        total[k] = total.get(k, 0.0) + v


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from summed raw values."""
    r = lambda k: raw.get(k, 0.0)  # noqa: E731
    return {
        "rings.build_s": (r("rings.build.s"), "s"),
        "rings.classify_s": (r("rings.classify.s"), "s"),
        "rings.elem_ops": (r("rings.elem_ops"), "count"),
        "polys.divide_calls": (r("polys.divide.calls"), "count"),
        "polys.divide_s": (r("polys.divide.s"), "s"),
        "polys.divide_exact_ratio": (_ratio(r("polys.divide.value"), r("polys.divide.calls")), "ratio"),
        "factor.search_calls": (r("factor.search.calls"), "count"),
        "factor.search_self_s": (r("factor.search.self_s"), "s"),
        "factor.found_ratio": (_ratio(r("factor.search.value"), r("factor.search.calls")), "ratio"),
        "factor.rational_roots_s": (r("factor.rational_roots.s"), "s"),
        "factor.comax_calls": (r("factor.comax.calls"), "count"),
        "factor.comax_s": (r("factor.comax.s"), "s"),
        "factor.comax_unit_ratio": (_ratio(r("factor.comax.value"), r("factor.comax.calls")), "ratio"),
        "matrices.char_poly_calls": (r("matrices.char_poly.calls"), "count"),
        "matrices.char_poly_s": (r("matrices.char_poly.s"), "s"),
        "matrices.inverse_calls": (r("matrices.inverse.calls"), "count"),
        "matrices.inverse_s": (r("matrices.inverse.s"), "s"),
        "matrices.matmul_calls": (r("matrices.matmul.calls"), "count"),
        "matrices.matmul_s": (r("matrices.matmul.s"), "s"),
        "matrices.similar_s": (r("matrices.similar.s"), "s"),
        "intlinalg.solve_calls": (r("intlinalg.solve.calls"), "count"),
        "intlinalg.solve_s": (r("intlinalg.solve.s"), "s"),
        "brute.scan_calls": (r("brute.scan.calls"), "count"),
        "brute.scan_s": (r("brute.scan.s"), "s"),
        "brute.candidates_scanned": (r("brute.scan.value"), "count"),
        "brute.candidates_per_s": (_ratio(r("brute.scan.value"), r("brute.scan.s")), "1/s"),
        "brute.oracle_calls": (r("brute.oracle.calls"), "count"),
        "brute.oracle_s": (r("brute.oracle.s"), "s"),
        "verify.calls": (r("verify.calls"), "count"),
        "verify.s": (r("verify.s"), "s"),
        "verify.rejections": (r("verify.value"), "count"),
        "decide.construct_calls": (r("decide.construct.calls"), "count"),
        "decide.construct_s": (r("decide.construct.s"), "s"),
        "decide.self_s": (r("decide.self_s"), "s"),
        "serialize.dumps_s": (r("serialize.dumps.s"), "s"),
        "serialize.out_bytes": (r("serialize.dumps.value"), "bytes"),
        "cli.interp_s": (r("cli.interp_s"), "s"),
        "cli.import_s": (r("cli.import_s"), "s"),
        "cli.main_s": (r("cli.main.s"), "s"),
        "quadz5.audit_s": (r("quadz5.audit.s"), "s"),
    }
