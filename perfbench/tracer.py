"""Spans around the public functions of hodge_asym, recorded from outside the package.

``Tracer.install()`` replaces each traced function by a wrapper wherever a
``hodge_asym`` module holds it (a name imported with ``from .x import f`` is
a second binding that must be patched too), and each traced method on its
class.  ``Tracer.restore()`` puts every original back.  Spans are kept in
memory as tuples and written out once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hodge_asym import cli, cmbuild, cyclochar, hodgecalc, pipeline, polygons


# -- computed counts, from a call's arguments and result ----------------------


def _exterior_ops(args, kwargs, result) -> dict:
    v, k = args[0], args[1]
    rank = v.rank
    return {"dp_ops": rank * min(k, rank) * v.l if k <= rank else 0}


def _diamond_terms(args, kwargs, result) -> dict:
    z = args[0]
    return {"dot_terms": (z.dim + 1) ** 2 * z.ctx.l}


def _search_table_counts(args, kwargs, result) -> dict:
    return {"candidates": len(result), "hits": sum(r0 != r1 for _, r0, r1 in result)}


def _typical_candidates(args, kwargs, result) -> dict:
    half = (result.U.l - 1) // 2
    skipped = sum((count + 1) ** half for count in range(1, result.layer_count))
    return {"candidates": skipped + result.candidate_index + 1}


def _cells(args, kwargs, result) -> dict:
    return {"cells": len(result.coeffs)}


def _ordinates(args, kwargs, result) -> dict:
    return {"ordinates": 2 * (args[0].rank + 1)}


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode())}


# (module, attribute, span name, counter) for module-level functions
FUNCTIONS = (
    (cyclochar, "exterior_power", "cyclochar.exterior_power", _exterior_ops),
    (cmbuild, "equivariant_diamond", "cmbuild.equivariant_diamond", _diamond_terms),
    (cmbuild, "search_table", "cmbuild.search_table", _search_table_counts),
    (cmbuild, "search_typical_U", "cmbuild.search_typical_U", _typical_candidates),
    (hodgecalc, "hypersurface", "hodgecalc.hypersurface", None),
    (hodgecalc, "blow_up_tower", "hodgecalc.blow_up_tower", None),
    (hodgecalc, "blow_up", "hodgecalc.blow_up", None),
    (hodgecalc, "product", "hodgecalc.product", None),
    (hodgecalc, "stack_series", "hodgecalc.stack_series", None),
    (hodgecalc, "weil_restriction_power", "hodgecalc.weil_restriction_power", None),
    (hodgecalc, "special_fiber_fix", "hodgecalc.special_fiber_fix", None),
    (polygons, "newton_above_hodge", "polygons.newton_above_hodge", _ordinates),
    (pipeline, "build_certificate", "pipeline.build_certificate", None),
    (pipeline, "symbolic_tower", "pipeline.symbolic", None),
    (pipeline, "symbolic_p1_power", "pipeline.symbolic", None),
    (pipeline, "assemble_delta", "pipeline.symbolic", None),
    (pipeline, "quotient_bookkeeping", "pipeline.quotient_bookkeeping", None),
    (pipeline, "embellish", "pipeline.embellish", None),
    (pipeline, "serialize_certificate", "pipeline.serialize_certificate", None),
    (cli, "build_parser", "cli.build_parser", None),
    (cli, "main", "cli.main", None),
    (cli, "regenerate", "cli.regenerate", None),
    (cli, "dumps", "cli.dumps", _bytes),
)

# (class, attribute, span name, counter) for methods, patched on the class
METHODS = (
    (hodgecalc.HodgePolynomial, "coeff", "hodgecalc.coeff", None),
    (hodgecalc.HodgePolynomial, "create", "hodgecalc.create", _cells),
    (hodgecalc.DPoly, "__mul__", "hodgecalc.dpoly_mul", None),
    (polygons.PolygonData, "create", "polygons.create", None),
)


def package_modules() -> list:
    """Every loaded module of the hodge_asym package."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "hodge_asym" or name.startswith("hodge_asym."))
    ]


class Tracer:
    """Records spans (id, parent id, request id, name, start, end, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on return
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            self.spans[sid] = (sid, parent, self._request, name, start, end, counts)
            return result

        return wrapper

    def request(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new request."""
        self._request += 1
        return self._wrap(fn, "request", None)(*args)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for owner, attr, name, counter in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for cls, attr, name, counter in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, name, counter))
            else:
                patched = self._wrap(raw, name, counter)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and summed counts."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span and span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        totals: dict[str, dict] = {}
        for sid, _, _, name, start, end, counts in filter(None, self.spans):
            t = totals.setdefault(name, defaultdict(float))
            t["calls"] += 1
            t["self_s"] += end - start - child_time[sid]
            for k, v in counts.items():
                t[k] += v
        return totals

    def write(self, path: Path) -> None:
        fields = ("id", "parent", "request", "name", "start", "end", "counts")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans if s]))
