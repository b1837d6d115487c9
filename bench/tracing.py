"""Layer spans for artinforge, recorded from outside the package.

A :class:`Tracer` replaces each layer entry point in ``ENTRY_POINTS`` with a
wrapper that records one span per call: name, start and end (ns), the span
that was open when it was called, and a few work counters.  Modules bind
names with ``from .x import y``, so one function can sit under several
names; ``install`` rebinds every module attribute of the package that holds
the original object, and ``uninstall`` puts every original back.  Spans are
kept in memory; ``write_jsonl`` writes them once, at the end of a run.

``layer_metrics`` turns a span list into the benchmark's per-layer metrics.
A layer is the first component of a span name; its self time is the time
its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module of artinforge, attribute, span name).  "Class.method" patches the
# method on the class.  The layer of a span is the part of its name before
# the first dot.
ENTRY_POINTS = (
    ("polyarith", "_normal_form", "polyarith.normal_form"),
    ("polyarith", "reduce", "polyarith.reduce"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "ideal_equal", "groebner.ideal_equal"),
    ("groebner", "ideal_member", "groebner.ideal_member"),
    ("groebner", "colon_ideal", "groebner.colon_ideal"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "rank", "linalg.rank"),
    ("quotient", "standard_monomials", "quotient.standard_monomials"),
    ("quotient", "QuotientAlgebra.normal_form", "quotient.normal_form"),
    ("quotient", "socle_dimension", "quotient.socle_dimension"),
    ("quotient", "equivariant_graded_trace", "quotient.equivariant_graded_trace"),
    ("quotient", "annihilator", "quotient.annihilator"),
    ("reptheory", "partitions", "reptheory.partitions"),
    ("reptheory", "conjugacy_classes", "reptheory.conjugacy_classes"),
    ("reptheory", "trivial_character", "reptheory.trivial_character"),
    ("reptheory", "subset_character", "reptheory.subset_character"),
    ("reptheory", "powerset_character", "reptheory.powerset_character"),
    ("reptheory", "half_powerset_character", "reptheory.half_powerset_character"),
    ("reptheory", "xn_character", "reptheory.xn_character"),
    ("paperlab", "verify", "paperlab.verify"),
    ("paperlab", "enumerate_points", "paperlab.enumerate_points"),
    ("paperlab", "verify_points_satisfy_ideal", "paperlab.verify_points_satisfy_ideal"),
)

CLAIM_IDS = (
    "appendix_colon",
    "appendix_krull",
    "appendix_regularity",
    "appendix_unprojection",
    "challenge",
    "inverse_system",
    "not_gorenstein_J",
    "prop2_codim",
    "prop3_basis",
    "prop3_generators",
    "prop4_generators",
    "thm1",
    "thm2",
    "thm3",
    "thmG",
)

_POINTS = ("paperlab.enumerate_points", "paperlab.verify_points_satisfy_ideal")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ideal_key(ideal, order):
    """What makes two ``buchberger`` inputs the same computation."""
    gens = tuple(tuple(sorted(g.terms.items())) for g in ideal.gens)
    return ideal.ring.names, order, gens


class Tracer:
    """Records spans around artinforge's layer entry points."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or None, attrs)
        self._stack: list = [None]
        self._patched: list = []  # (owner, attribute, original)
        self._completed: set = set()
        self._attrs = {
            "polyarith.normal_form": lambda a, k, r: {"terms": len(a[0])},
            "groebner.buchberger": self._buchberger_attrs,
            "groebner.ideal_member": lambda a, k, r: {"member": bool(r)},
            "linalg.kernel_basis": lambda a, k, r: {
                "cells": len(_arg(a, k, 0, "rows")) * _arg(a, k, 1, "ncols")
            },
            "paperlab.verify": lambda a, k, r: {
                "claim": _arg(a, k, 0, "claim"),
                "n": _arg(a, k, 1, "n"),
            },
        }

    def _buchberger_attrs(self, args, kwargs, result):
        from artinforge.polyarith import GREVLEX

        key = _ideal_key(args[0], _arg(args, kwargs, 1, "order", GREVLEX))
        repeat = key in self._completed
        self._completed.add(key)
        return {"basis": len(result.elements), "repeat": repeat}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs = self._attrs.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, None)
            if attrs is not None:
                spans[sid] = (name, start, end, parent, attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every entry point in the loaded package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "artinforge" or name.startswith("artinforge.")
        ]
        for home, attr, span in ENTRY_POINTS:
            mod = sys.modules[f"artinforge.{home}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patched.append((owner, meth, original))
                setattr(owner, meth, self._wrap(span, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patched.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write_jsonl(self, path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {
                    "run": run_id,
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _outermost(spans, names) -> float:
    """Seconds covered by spans named in ``names``, counting nested ones once."""
    total = 0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total / 1e9


def layer_metrics(spans, run_ns: int) -> dict:
    """Per-layer metrics of one traced process.

    ``run_ns`` is the time from the end of set-up to the end of the claim
    run; ``paperlab.verify.cover_frac`` is the share of it inside
    ``verify``.  ``trace.overhead_frac`` needs an untraced run and is left
    to the caller.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    totals: dict = defaultdict(int)
    claim_ns: dict = defaultdict(int)
    for sid, (name, start, end, parent, attrs) in enumerate(spans):
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[sid]
        calls[name] += 1
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, int):  # counts and flags
                    totals[name, key] += value
        if name == "paperlab.verify" and attrs:
            claim_ns[attrs["claim"]] += end - start
    # every admitted kernel vector starts one buchberger call; every other
    # candidate was an ideal_member call that returned true
    admitted = rejected = 0
    for name, _, _, parent, attrs in spans:
        if parent is None or spans[parent][0] != "quotient.annihilator":
            continue
        if name == "groebner.buchberger":
            admitted += 1
        elif name == "groebner.ideal_member" and attrs and attrs["member"]:
            rejected += 1
    bb_calls = calls["groebner.buchberger"]
    out = {
        "polyarith.normal_form.calls": calls["polyarith.normal_form"],
        "polyarith.normal_form.terms_in": totals["polyarith.normal_form", "terms"],
        "quotient.normal_form.calls": calls["quotient.normal_form"],
        "quotient.annihilator.admit_frac": (
            admitted / (admitted + rejected) if admitted + rejected else 0.0
        ),
        "linalg.kernel_basis.calls": calls["linalg.kernel_basis"],
        "linalg.kernel_basis.cells": totals["linalg.kernel_basis", "cells"],
        "groebner.buchberger.calls": bb_calls,
        "groebner.buchberger.basis_elems": totals["groebner.buchberger", "basis"],
        "groebner.buchberger.repeat_frac": (
            totals["groebner.buchberger", "repeat"] / bb_calls if bb_calls else 0.0
        ),
        "groebner.ideal_member.calls": calls["groebner.ideal_member"],
        "groebner.ideal_equal.calls": calls["groebner.ideal_equal"],
        "paperlab.points.s": _outermost(spans, _POINTS),
        "paperlab.verify.cover_frac": (
            _outermost(spans, ("paperlab.verify",)) * 1e9 / run_ns
        ),
    }
    for layer in ("polyarith", "quotient", "linalg", "groebner", "reptheory", "paperlab"):
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for name in (
        "quotient.equivariant_graded_trace",
        "quotient.socle_dimension",
        "quotient.standard_monomials",
        "quotient.annihilator",
        "linalg.kernel_basis",
        "groebner.colon_ideal",
        "groebner.buchberger",
    ):
        out[f"{name}.s"] = _outermost(spans, (name,))
    for claim in CLAIM_IDS:
        out[f"paperlab.claim.{claim}.s"] = claim_ns[claim] / 1e9
    return out
