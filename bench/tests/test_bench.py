"""Self-tests of the benchmark harness: ``python3 -m pytest bench/tests -q``."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

MS = 10**6  # span times are in ns


def _span(name, start, end, parent, attrs=None):
    return (name, start * MS, end * MS, parent, attrs)


def test_self_time_subtracts_nested_spans_of_other_layers():
    spans = [
        _span("paperlab.verify", 0, 100, None, {"claim": "thm1", "n": 3}),
        _span("groebner.buchberger", 10, 60, 0, {"basis": 3, "repeat": False}),
        _span("polyarith.normal_form", 20, 30, 1, {"terms": 4}),
        _span("polyarith.normal_form", 40, 45, 1, {"terms": 2}),
        _span("groebner.colon_ideal", 65, 95, 0),
        _span("groebner.buchberger", 70, 90, 4, {"basis": 5, "repeat": True}),
        _span("linalg.kernel_basis", 75, 80, 5, {"cells": 12}),
    ]
    m = tracing.layer_metrics(spans, 200 * MS)
    assert m["paperlab.self_s"] == pytest.approx(0.020)
    # 35 ms in the first basis, 10 in the colon outside its basis, 15 in that basis
    assert m["groebner.self_s"] == pytest.approx(0.060)
    assert m["polyarith.self_s"] == pytest.approx(0.015)
    assert m["linalg.self_s"] == pytest.approx(0.005)
    assert m["groebner.buchberger.s"] == pytest.approx(0.070)
    assert m["groebner.colon_ideal.s"] == pytest.approx(0.030)
    assert m["paperlab.claim.thm1.s"] == pytest.approx(0.100)
    assert m["paperlab.verify.cover_frac"] == pytest.approx(0.5)
    assert m["polyarith.normal_form.calls"] == 2
    assert m["polyarith.normal_form.terms_in"] == 6
    assert m["groebner.buchberger.basis_elems"] == 8
    assert m["groebner.buchberger.repeat_frac"] == pytest.approx(0.5)
    assert m["linalg.kernel_basis.cells"] == 12
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) == {metric["name"] for metric in listed} - {"trace.overhead_frac"}


def test_nested_spans_of_one_name_count_once_and_admissions():
    spans = [
        _span("quotient.annihilator", 0, 50, None),
        _span("groebner.ideal_member", 1, 2, 0, {"member": True}),
        _span("groebner.ideal_member", 3, 4, 0, {"member": True}),
        _span("groebner.ideal_member", 5, 6, 0, {"member": False}),
        _span("groebner.buchberger", 7, 20, 0, {"basis": 2, "repeat": False}),
        _span("groebner.buchberger", 8, 12, 4, {"basis": 1, "repeat": False}),
    ]
    m = tracing.layer_metrics(spans, 50 * MS)
    assert m["groebner.buchberger.s"] == pytest.approx(0.013)
    assert m["quotient.annihilator.s"] == pytest.approx(0.050)
    # one admitted (the outer buchberger), two rejected by ideal_member
    assert m["quotient.annihilator.admit_frac"] == pytest.approx(1 / 3)


# every binding of the traced names that a module of the package holds
LISTED_BINDINGS = [
    *[(m, "buchberger") for m in ("groebner", "paperlab", "quotient", "cli")],
    *[(m, "_normal_form") for m in ("polyarith", "groebner", "quotient")],
    *[(m, "ideal_member") for m in ("groebner", "quotient")],
    *[(m, "colon_ideal") for m in ("groebner", "paperlab")],
    *[
        (m, name)
        for m in ("quotient", "paperlab")
        for name in (
            "annihilator",
            "socle_dimension",
            "equivariant_graded_trace",
            "standard_monomials",
        )
    ],
    ("linalg", "kernel_basis"),
    ("paperlab", "verify"),
]


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "artinforge"}
    snapshot = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    from artinforge.quotient import QuotientAlgebra

    snapshot["QuotientAlgebra.normal_form"] = QuotientAlgebra.__dict__["normal_form"]
    return snapshot


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import artinforge.cli  # noqa: F401
    from artinforge import groebner, linalg, paperlab, polyarith, quotient

    before = _bindings()
    originals = [
        getattr(sys.modules[f"artinforge.{home}"], attr)
        for home, attr, _ in tracing.ENTRY_POINTS
        if "." not in attr
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, name in LISTED_BINDINGS:
            assert hasattr(getattr(sys.modules[f"artinforge.{mod}"], name), "__wrapped__")
        assert hasattr(quotient.QuotientAlgebra.__dict__["normal_form"], "__wrapped__")
        wrapped = set(map(id, originals))
        assert [k for k, v in _bindings().items() if id(v) in wrapped] == []
        ring = polyarith.xring(2)
        x, y = ring.var("x1"), ring.var("x2")
        gb = groebner.buchberger(polyarith.Ideal(ring, (x * x, y * y)))
        assert groebner.ideal_member(x * x * y, gb)
        q = quotient.QuotientAlgebra(gb)
        assert quotient.socle_dimension(q) == (1, True)
        assert linalg.kernel_basis([[1, 1]], 2) == [[1, -1]]
        assert paperlab.verify("thm1", 2).status == "pass"
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {
        "groebner.buchberger",
        "groebner.ideal_member",
        "polyarith.normal_form",
        "polyarith.reduce",
        "quotient.standard_monomials",
        "quotient.socle_dimension",
        "quotient.normal_form",
        "linalg.kernel_basis",
        "paperlab.verify",
    } <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_digest_gate_rejects_tampered_output():
    out = b'{"claim": "thm1", "n": 3, "status": "pass"}\n'
    ref = {"exit_code": 0, "lines": 1, "sha256": hashlib.sha256(out).hexdigest()}
    assert run.check_output(out, 0, ref)
    assert not run.check_output(out.replace(b"pass", b"fail"), 0, ref)
    assert not run.check_output(out, 1, ref)
    assert not run.check_output(out + out, 0, ref)
    assert not run.check_output(b"", 0, ref)


def test_reference_covers_every_workload():
    ref = json.loads((BENCH / "reference.json").read_text())
    assert set(ref) == set(run.WORKLOADS)
    assert [ref[w]["lines"] for w in run.WORKLOADS] == [84, 4, 4]


def test_smoke_traced_and_untraced_samples_agree(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    argv = ["verify", "--n", "3", "--claims", "all", "--format", "json"]
    deadline = run._now_ns() + 120 * 10**9
    plain, plain_out, _ = run.spawn("plain", argv, deadline)
    spans = str(tmp_path / "spans.jsonl")
    traced, traced_out, _ = run.spawn("trace", argv, deadline, spans, "smoke/0")
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain_out == traced_out and plain_out.count(b"\n") == 15
    assert Path(plain["artinforge_file"]) == run.SOURCE
    assert 0 < plain["setup_s"] < plain["wall_s"]
    assert plain["peak_rss_mb"] > 1
    layers = traced["layers"]
    assert layers["paperlab.verify.cover_frac"] > 0.5
    assert layers["groebner.buchberger.calls"] > 0
    lines = Path(spans).read_text().splitlines()
    assert len(lines) > 0 and all('"run":"smoke/0"' in line for line in lines)
