import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from artinforge import cli, groebner, paperlab, quotient
from artinforge.polyarith import Ideal, Polynomial
from artinforge.quotient import QuotientAlgebra, hilbert_series, socle_dimension


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_schema():
    text = (
        resources.files("artinforge") / "schemas" / "report.schema.json"
    ).read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# verify

def test_verify_json_passes_and_validates(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3..4", "--claims", "thm1,thm2", "--format", "json"
    )
    assert code == 0
    schema = report_schema()
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        report = json.loads(line)
        jsonschema.validate(report, schema)
        assert report["status"] == "pass"
        assert "millis" not in report


def test_verify_timings_flag_includes_millis(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "3..3", "--claims", "thm1", "--format", "json", "--timings",
    )
    assert code == 0
    report = json.loads(out.strip())
    jsonschema.validate(report, report_schema())
    assert isinstance(report["millis"], int)


def test_verify_text_output_sorted_and_skips(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2..3", "--claims", "prop3_basis,thm1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("skipped") and "prop3_basis" in lines[0]
    assert all("thm1" in line for line in lines[2:])


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--claims", "thm99")
    assert code == 2
    assert "thm99" in err


@pytest.mark.parametrize("value", ["", ",,", " , "])
def test_verify_without_claim_ids_is_usage_error(capsys, value):
    code, out, err = run(capsys, "verify", "--n", "3", "--claims", value)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "names no claim id" in err
    assert "Traceback" not in err


def test_verify_rejects_out_of_range_n(capsys):
    assert run(capsys, "verify", "--n", "1..3")[0] == 2
    assert run(capsys, "verify", "--n", "9")[0] == 2
    # n = 8, the top of the range, needs no flag; a range past it is refused
    assert run(capsys, "verify", "--n", "8", "--claims", "thm1")[0] == 0
    assert run(capsys, "verify", "--n", "7..9", "--claims", "thm1") == (
        2, "", "artinforge: error: n=9 outside the supported range 2..8\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        "verify --n 0..3",
        "verify --n 3..2",
        "socle --ideal J --n 9",
        "verify --claims nope --n 3",
        "points --n 2",
        "character --n 3 --kind subset",
    ],
)
def test_usage_error_is_one_line_without_the_usage_block(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and ": error: " in err
    assert "usage:" not in err and "Traceback" not in err


def test_non_positive_pair_cap_is_usage_error(capsys):
    for value in ("0", "-5", "abc"):
        code, out, err = run(
            capsys, "verify", "--n", "3", "--claims", "thm1", "--pair-cap", value
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--pair-cap" in err


def test_pair_cap_exhaustion_exits_3(capsys):
    # the colon target of appendix_colon is the one completion verify makes
    code, _, err = run(
        capsys,
        "verify", "--n", "5..5", "--claims", "appendix_colon", "--pair-cap", "1",
    )
    assert code == 3
    assert "resource limit" in err


def test_a_pair_cap_of_one_bounds_only_the_colon_target(capsys):
    claims = ",".join(c for c in paperlab.CLAIMS if c != "appendix_colon")
    code, out, err = run(
        capsys, "verify", "--n", "2..8", "--claims", claims, "--pair-cap", "1"
    )
    assert (code, err) == (0, "90 pass, 0 fail, 8 skipped\n")


def test_an_unset_pair_cap_is_buchbergers_default(capsys, monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_CAP", 1)
    code, out, err = run(capsys, "verify", "--n", "3", "--claims", "appendix_colon")
    assert (code, out) == (3, "")
    assert err == "resource limit: pair queue exceeded the cap of 1 pairs\n"


def test_verify_hands_each_workbench_on_as_the_next_prev(capsys, monkeypatch):
    built = []
    real = paperlab.Workbench.__init__

    def counting(self, n, pair_cap=None):
        built.append(n)
        real(self, n, pair_cap)

    monkeypatch.setattr(paperlab.Workbench, "__init__", counting)
    code, _, _ = run(capsys, "verify", "--n", "3..6", "--claims", "appendix_krull")
    # n = 3 builds its own prev; from n = 4 on, prev is the workbench of n - 1
    assert (code, built) == (0, [3, 2, 4, 5, 6])


def test_verify_determinism_across_runs(capsys):
    argv = ["verify", "--n", "2..4", "--claims", "all", "--format", "json"]
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_determinism_across_processes_and_hash_seeds():
    runs = [
        ("verify", "--n", "2..5", "--claims", "all", "--format", "json"),
        ("groebner", "--ideal", "Q", "--n", "7", "--order", "lex"),
        ("hilbert", "--ideal", "I", "--n", "7"),
        ("socle", "--ideal", "K", "--n", "7"),
        ("challenge", "--n", "7", "--format", "json"),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {argv: set() for argv in runs}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for argv in runs:
            done = subprocess.run(
                [sys.executable, "-m", "artinforge", *argv],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs[argv].add(done.stdout)
    assert all(len(out) == 1 for out in outputs.values())
    assert outputs[runs[0]].pop().count(b"\n") == 15 * 4


def test_jobs_flag_is_gone(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--jobs", "2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "artinforge: error: unrecognized arguments: --jobs 2"


def test_report_schema_n_range_is_the_supported_range():
    n = report_schema()["properties"]["n"]
    assert (n["minimum"], n["maximum"]) == paperlab.SUPPORTED_RANGE


# ---------------------------------------------------------------------------
# the dump subcommands

def test_hilbert_row_n6(capsys):
    code, out, _ = run(capsys, "hilbert", "--ideal", "J", "--n", "6")
    assert code == 0
    assert out.strip() == "1 6 16 26 31 26 16 6 1"


def test_groebner_I3_leading_monomials(capsys):
    code, out, _ = run(
        capsys, "groebner", "--ideal", "I", "--n", "3", "--order", "grevlex"
    )
    assert code == 0
    from artinforge.polyarith import Polynomial, xring

    ring = xring(3)
    leads = {
        ring.fmt(Polynomial.monomial(ring.poly(line).leading_monomial()))
        for line in out.strip().splitlines()
    }
    assert leads == {"x1^2", "x2^2", "x1*x2", "x1*x3", "x2*x3", "x3^3"}


def test_groebner_json(capsys):
    code, out, _ = run(
        capsys, "groebner", "--ideal", "K", "--n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and len(payload["basis"]) == 6


@pytest.mark.parametrize("ideal", ["L", "Q"])
def test_groebner_below_n3_is_usage_error(capsys, ideal):
    code, out, err = run(capsys, "groebner", "--ideal", ideal, "--n", "2")
    assert code == 2 and out == ""
    assert err == f"artinforge: error: --ideal {ideal} requires n >= 3\n"


def test_socle_subcommand(capsys):
    code, out, _ = run(capsys, "socle", "--ideal", "J", "--n", "3")
    assert code == 0
    assert out.strip() == "socle_dimension=3 gorenstein=false"
    code, out, _ = run(capsys, "socle", "--ideal", "K", "--n", "4", "--format", "json")
    assert json.loads(out) == {
        "gorenstein": True,
        "ideal": "K",
        "n": 4,
        "socle_dimension": 1,
    }


def test_challenge_subcommand(capsys):
    code, out, _ = run(capsys, "challenge", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    degrees = [term["degree"] for term in payload["terms"]]
    assert degrees == [0, 1, 2]
    values = payload["terms"][1]["class_function"]["values"]
    assert values == [
        {"cycle_type": [1, 1, 1], "value": "3"},
        {"cycle_type": [2, 1], "value": "1"},
        {"cycle_type": [3], "value": "0"},
    ]


def test_character_subcommand(capsys):
    code, out, _ = run(
        capsys, "character", "--kind", "subset", "--n", "3", "--k", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [v["value"] for v in payload["values"]] == ["3", "1", "0"]
    assert run(capsys, "character", "--kind", "subset", "--n", "3")[0] == 2
    assert run(capsys, "character", "--kind", "half-powerset", "--n", "4")[0] == 2


def test_points_subcommand(capsys):
    code, out, _ = run(capsys, "points", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "origin"
    assert len(lines) == 5
    assert run(capsys, "points", "--n", "2")[0] == 2


def test_triangle_subcommand(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "2..6")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1 6 16 26 31 26 16 6 1"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# the arguments of one run of each command at n = 8, the top of the range
AT_THE_TOP = {
    "verify": ("--n", "8", "--claims", "thm1"),
    "groebner": ("--ideal", "K", "--n", "8"),
    "hilbert": ("--ideal", "K", "--n", "8"),
    "character": ("--kind", "xn", "--n", "8"),
    "socle": ("--ideal", "J", "--n", "8"),
    "challenge": ("--n", "8"),
    "points": ("--n", "8"),
    "triangle": ("--n", "2..8"),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_takes_only_the_options_it_acts_on(capsys, command):
    # no flag gates n = 8, and only the two commands that complete a basis
    # (verify and groebner) take a pair cap
    argv = (command, *AT_THE_TOP[command])
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert run(capsys, *argv, "--allow-large-n") == (
        2, "", "artinforge: error: unrecognized arguments: --allow-large-n\n"
    )
    capped = run(capsys, *argv, "--pair-cap", "1")
    if command in ("verify", "groebner"):
        assert capped == (0, out, err)
    else:
        assert capped == (
            2, "", "artinforge: error: unrecognized arguments: --pair-cap 1\n"
        )


# ---------------------------------------------------------------------------
# the dump subcommands read the workbench's certified artefacts

# each command that prints a closed form, its staircase or a claim's
# verdict, with the certificates it reads: socle --ideal K and challenge
# read those of thmG and challenge in paperlab.CLAIMS
CERTIFIED = {
    ("groebner", "--ideal", "J"): {"sandwich_check"},
    ("groebner", "--ideal", "K"): {"sandwich_check"},
    ("groebner", "--ideal", "K", "--order", "lex"): {"sandwich_check"},
    ("hilbert", "--ideal", "I"): {"sandwich_check"},
    ("hilbert", "--ideal", "J"): {"sandwich_check"},
    ("hilbert", "--ideal", "K"): {"sandwich_check"},
    ("socle", "--ideal", "J"): {"sandwich_check"},
    ("socle", "--ideal", "K"): {"sandwich_check", "series_check", "duality_check"},
    ("challenge",): {"sandwich_check", "staircase_check", "symmetry_check"},
    ("groebner", "--ideal", "L"): {"colength_check"},
    ("groebner", "--ideal", "L", "--order", "deglex"): {"colength_check"},
    ("groebner", "--ideal", "Q"): {"criterion_check"},
    ("groebner", "--ideal", "Q", "--order", "lex"): {"criterion_check"},
}


def test_socle_K_and_challenge_read_the_certificates_of_their_claims():
    assert set(paperlab.CLAIMS["thmG"][1]) == CERTIFIED[("socle", "--ideal", "K")]
    assert set(paperlab.CLAIMS["challenge"][1]) == CERTIFIED[("challenge",)]


@pytest.mark.parametrize("certificate", sorted(set().union(*CERTIFIED.values())))
def test_a_failed_certificate_fails_exactly_the_commands_resting_on_it(
    capsys, monkeypatch, certificate
):
    witness = f"planted {certificate} witness"
    monkeypatch.setattr(paperlab.Workbench, certificate, witness)
    for command, certificates in CERTIFIED.items():
        code, out, err = run(capsys, *command, "--n", "4")
        if certificate in certificates:
            assert (code, out) == (1, ""), command
            assert err == f"artinforge: certificate failed: {witness}\n"
        else:
            assert (code, err) == (0, ""), command
    assert run(capsys, "groebner", "--ideal", "I", "--n", "4")[0] == 0


def _raising(*args, **kwargs):
    raise AssertionError("buchberger was called")


@pytest.mark.parametrize("n", range(2, 9))
def test_the_grevlex_artefacts_complete_nothing(capsys, monkeypatch, n):
    # buchberger stays the reference; the CLI reads the certified closed
    # forms, so no pair cap can bound them
    for module in (cli, groebner, paperlab):
        monkeypatch.setattr(module, "buchberger", _raising)
    commands = [
        ("groebner", "--ideal", "J"),
        ("groebner", "--ideal", "K"),
        *[("groebner", "--ideal", name) for name in ("L", "Q") if n >= 3],
        ("hilbert", "--ideal", "I"),
        ("hilbert", "--ideal", "J"),
        ("hilbert", "--ideal", "K"),
        ("socle", "--ideal", "J"),
        ("socle", "--ideal", "K"),
        ("challenge",),
    ]
    for command in commands:
        code, out, err = run(capsys, *command, "--n", str(n))
        assert (code, err) == (0, "") and out, command
        if command[0] == "groebner":  # the others take no pair cap
            capped = run(capsys, *command, "--n", str(n), "--pair-cap", "1")
            assert capped == (0, out, err), command


@pytest.mark.parametrize("n", range(3, 9))
def test_groebner_I_still_completes_within_the_pair_cap(capsys, n):
    code, out, err = run(
        capsys, "groebner", "--ideal", "I", "--n", str(n), "--pair-cap", "1"
    )
    assert (code, out) == (3, "")
    assert err == "resource limit: pair queue exceeded the cap of 1 pairs\n"


def _reference_generators(name, n):
    wb = paperlab.Workbench(n)
    if name != "J":
        return getattr(wb, f"ideal_{name}")
    # J_n = in(I_n), read off the completion of I_n
    gb = groebner.buchberger(wb.ideal_I)
    ring = wb.ideal_I.ring
    return Ideal(ring, tuple(Polynomial.monomial(m) for m in gb.leading_monomials()))


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("order", ["lex", "deglex"])
def test_each_other_order_completes_the_certified_basis_to_the_reference(
    capsys, n, order
):
    for name in "JKLQ":
        code, out, _ = run(
            capsys, "groebner", "--ideal", name, "--n", str(n), "--order", order
        )
        gb = groebner.buchberger(_reference_generators(name, n), cli._ORDERS[order])
        assert code == 0
        assert out.splitlines() == [gb.ring.fmt(g, gb.order) for g in gb.elements]


@pytest.mark.parametrize("n", range(2, 8))
def test_hilbert_I_is_the_staircase_of_the_completion_of_I(capsys, n):
    gb = groebner.buchberger(paperlab.build_ideal("I", n))
    series = hilbert_series(groebner.standard_monomials(gb))
    code, out, _ = run(capsys, "hilbert", "--ideal", "I", "--n", str(n))
    assert (code, out) == (0, " ".join(map(str, series)) + "\n")


def test_socle_K_keeps_the_table_of_the_closed_form(capsys, monkeypatch):
    # socle_dimension on the completed basis stays the reference; the
    # command reads thmG's certificates and builds no table
    def forbidden(*args):
        raise AssertionError("socle --ideal K built a quotient algebra")

    for n in range(2, 8):
        with monkeypatch.context() as patch:
            patch.setattr(quotient, "QuotientAlgebra", forbidden)
            code, out, _ = run(capsys, "socle", "--ideal", "K", "--n", str(n))
        q = QuotientAlgebra(groebner.buchberger(paperlab.Workbench(n).ideal_K))
        dim, gorenstein = socle_dimension(q)
        line = f"socle_dimension={dim} gorenstein={str(gorenstein).lower()}\n"
        assert (code, out) == (0, line)


# ---------------------------------------------------------------------------
# pinned output of every subcommand

PINNED = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "cli-outputs.jsonl")
    .read_text()
    .splitlines()
]


@pytest.mark.parametrize("record", PINNED, ids=[" ".join(r["argv"]) for r in PINNED])
def test_output_matches_the_pinned_bytes(capsys, record):
    code, out, err = run(capsys, *record["argv"])
    assert (code, out, err) == (record["code"], record["stdout"], record["stderr"])


def test_verify_n2_to_7_matches_the_pinned_registry(capsys):
    # every claim at n = 2..7, byte for byte
    pinned = (Path(__file__).parent / "data" / "verify-n2-7.jsonl").read_text()
    code, out, err = run(
        capsys, "verify", "--n", "2..7", "--claims", "all", "--format", "json"
    )
    assert (code, out, err) == (0, pinned, "81 pass, 0 fail, 9 skipped\n")


def test_verify_n2_to_7_text_matches_the_pinned_lines(capsys):
    # the default text output of the same run, byte for byte
    pinned = (Path(__file__).parent / "data" / "verify-n2-7.txt").read_text()
    code, out, err = run(capsys, "verify", "--n", "2..7", "--claims", "all")
    assert (code, out, err) == (0, pinned, "81 pass, 0 fail, 9 skipped\n")


def test_verify_summary_follows_the_reports():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-u", "-m", "artinforge", "verify", "--n", "3..4",
         "--claims", "thm1"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        check=True,
    )
    lines = done.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["pass", "pass"]
    assert lines[2:] == ["2 pass, 0 fail, 0 skipped"]
