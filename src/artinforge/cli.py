"""Batch command-line front end.

Subcommands: verify, groebner, hilbert, character, socle, challenge, points,
triangle.  Each command returns its JSON records, its text lines and an exit
code without printing; :func:`run` checks ``--n`` once for every command and
prints either one JSON object per record (``--format json``) or the lines,
exact and byte-identical across runs.  ``verify`` runs the claims one n at a
time on one :class:`paperlab.Workbench` per n, handed on as the ``prev`` of
the next n, and emits the reports sorted by claim and n, then a summary on
stderr.  The other commands print Workbench artefacts once the certificates
each rests on pass (``paperlab.first_witness``, as in ``verify``; ``socle
--ideal K`` and ``challenge`` read those of their claims in ``CLAIMS``); a
witness exits 1 with one stderr line.  ``buchberger`` runs only for
``groebner --ideal I`` and for lex or deglex, within ``--pair-cap`` (unset:
its default), which in ``verify`` bounds the colon target of appendix_colon.

Exit codes: 0 pass, 1 a failed claim or certificate, 2 usage error, 3 pair cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import paperlab, quotient, reptheory
from .errors import ResourceLimitError
from .groebner import buchberger
from .polyarith import DEGLEX, GREVLEX, LEX, Ideal

_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "deglex": DEGLEX}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty n range {text!r}")
    return range(a, b + 1)


class _Parser(argparse.ArgumentParser):
    """A usage error is one line on stderr; subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _arg(*flags, **options):
    """One ``add_argument`` call, kept for when its subparser is built."""
    return flags, options


# every subcommand takes these first
_COMMON = (
    _arg("--format", choices=("text", "json"), default="text", help="output format"),
    _arg(
        "--pair-cap",
        default=None,
        help="S-pair queue bound, a positive integer (default: 10^6)",
    ),
    _arg(
        "--allow-large-n",
        action="store_true",
        help="permit n = 8 (computations grow steeply)",
    ),
)
_N = _arg("--n", type=int, required=True)

def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When ``argv`` starts with a command name
    only that command's subparser is built, which reads and prints the same
    as in the full parser; anything else (``-h``, a typo) gets all of them,
    so usage lines and choice lists are unchanged."""
    parser = _Parser(
        prog="artinforge",
        description="exact verification workbench for a family of binomial "
        "ideals and their Artinian quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        _, help_text, *arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in (*_COMMON, *arguments):
            p.add_argument(*flags, **options)
    return parser


def _check_n(parser, args, values) -> None:
    lo, hi = paperlab.SUPPORTED_RANGE
    for n in values:
        if not lo <= n <= hi:
            parser.error(f"n={n} outside the supported range {lo}..{hi}")
        if n == hi and not args.allow_large_n:
            parser.error(f"n={n} requires --allow-large-n")


def _resolve_cap(parser, args) -> "int | None":
    """``--pair-cap``, else None for ``buchberger``'s default; anything but a
    positive integer is a usage error."""
    text = args.pair_cap
    if text is None:
        return None
    if not text.strip().isdecimal() or int(text) < 1:
        parser.error(f"--pair-cap must be a positive integer, got {text!r}")
    return int(text)


def _workbench(parser, args, certificates=("sandwich_check",)) -> paperlab.Workbench:
    """The workbench of ``--n``; exit 1 unless its ``certificates`` pass."""
    wb = paperlab.Workbench(args.n, args.pair_cap)
    witness = paperlab.first_witness(wb, certificates)
    if witness is not None:
        parser.exit(EXIT_FAIL, f"{parser.prog}: certificate failed: {witness}\n")
    return wb


def _class_value(lam, value) -> str:
    return f"({','.join(str(p) for p in lam)}): {value}"


def _cmd_verify(parser, args):
    if args.claims == "all":
        claims = sorted(paperlab.CLAIMS)
    else:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not claims:
            parser.error(f"--claims names no claim id: {args.claims!r}")
        for c in claims:
            if c not in paperlab.CLAIMS:
                parser.error(f"unknown claim id {c!r}")
        claims = sorted(set(claims))
    reports, prev = [], None
    for n in args.n:
        wb = paperlab.Workbench(n, args.pair_cap)
        if prev is not None:
            wb.prev = prev  # K_{n-1} and its certificate as n - 1 built them
        reports += [paperlab.verify(claim, n, wb) for claim in claims]
        prev = wb
    reports.sort(key=lambda r: (r.claim, r.n))
    lines = []
    for r in reports:
        line = f"{r.status:<8}{r.claim:<24}n={r.n}"
        if r.witness:
            line += f"  [{r.witness}]"
        lines.append(line)
    records = [r.to_json_dict(include_millis=args.timings) for r in reports]
    failed = any(r.status == "fail" for r in reports)
    return records, lines, EXIT_FAIL if failed else EXIT_OK


def _verify_summary(records) -> str:
    """The stderr line that ``run`` prints after the ``verify`` reports."""
    counts = Counter(r["status"] for r in records)
    return f"{counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped"


def _cmd_groebner(parser, args):
    if args.ideal in ("L", "Q") and args.n < 3:
        parser.error(f"--ideal {args.ideal} requires n >= 3")
    name, order = args.ideal, _ORDERS[args.order]
    if name == "I":  # I_n has no closed form
        gb = buchberger(paperlab.build_ideal("I", args.n), order, args.pair_cap)
    else:  # the certified GRevLex basis, completed in any other order
        check = {"L": "colength_check", "Q": "criterion_check"}.get(name, "sandwich_check")
        gb = getattr(_workbench(parser, args, (check,)), f"gb_{name}")
        if order is not GREVLEX:
            gb = buchberger(Ideal(gb.ring, gb.elements), order, args.pair_cap)
    rendered = [gb.ring.fmt(g, gb.order) for g in gb.elements]
    record = {"ideal": args.ideal, "n": args.n, "order": args.order, "basis": rendered}
    return [record], rendered, EXIT_OK


def _cmd_hilbert(parser, args):
    # in(I_n) = J_n = in(K_n): the three share the one certified staircase
    series = quotient.hilbert_series(_workbench(parser, args).staircase_K)
    record = {"coefficients": series, "ideal": args.ideal, "n": args.n}
    return [record], [" ".join(str(c) for c in series)], EXIT_OK


def _cmd_character(parser, args):
    n = args.n
    if args.kind == "xn":
        cf = reptheory.xn_character(n)
    elif args.kind == "powerset":
        cf = reptheory.powerset_character(n)
    elif args.kind == "half-powerset":
        if n % 2 == 0:
            parser.error("--kind half-powerset requires odd n")
        cf = reptheory.half_powerset_character(n)
    elif args.kind == "trivial":
        cf = reptheory.trivial_character(n)
    else:
        if args.k is None:
            parser.error("--kind subset requires --k")
        if not 0 <= args.k <= n:
            parser.error(f"--k must lie in 0..{n}")
        cf = reptheory.subset_character(n, args.k)
    lines = [_class_value(lam, value) for lam, value in cf.values.items()]
    return [cf.to_dict()], lines, EXIT_OK


def _cmd_socle(parser, args):
    if args.ideal == "J":
        dim = len(_workbench(parser, args).socle_J)
    else:  # R/K_n is Gorenstein once the certificates of thmG pass
        _workbench(parser, args, paperlab.CLAIMS["thmG"][1])
        dim = 1
    gorenstein = dim == 1
    record = {
        "gorenstein": gorenstein,
        "ideal": args.ideal,
        "n": args.n,
        "socle_dimension": dim,
    }
    line = f"socle_dimension={dim} gorenstein={str(gorenstein).lower()}"
    return [record], [line], EXIT_OK


def _cmd_challenge(parser, args):
    wb = _workbench(parser, args, paperlab.CLAIMS["challenge"][1])
    series = paperlab.challenge_series(wb)
    lines = [
        f"t^{degree}: "
        + ", ".join(_class_value(lam, v) for lam, v in cf.values.items())
        for degree, cf in enumerate(series)
    ]
    terms = [
        {"degree": d, "class_function": cf.to_dict()} for d, cf in enumerate(series)
    ]
    return [{"n": args.n, "terms": terms}], lines, EXIT_OK


def _cmd_points(parser, args):
    if args.n < 3:
        parser.error("points requires n >= 3")
    pts = paperlab.enumerate_points(args.n)
    payload, lines = [], []
    for p in pts:
        if p.is_origin:
            payload.append({"origin": True})
            lines.append("origin")
        else:
            payload.append({"origin": False, "root_index": p.k, "signs": list(p.eps)})
            signs = "".join("+" if e == 1 else "-" for e in p.eps)
            lines.append(f"k={p.k} eps={signs}")
    return [{"count": len(pts), "points": payload}], lines, EXIT_OK


def _cmd_triangle(parser, args):
    rows = [paperlab.bernoulli(n) for n in args.n]
    records = [{"n": n, "row": row} for n, row in zip(args.n, rows)]
    return records, [" ".join(str(c) for c in row) for row in rows], EXIT_OK


# name -> (the command, its help, the arguments it takes after the common ones)
_COMMANDS = {
    "verify": (
        _cmd_verify,
        "run registered claims",
        _arg("--n", type=_parse_n_range, default=range(2, 7), metavar="A..B"),
        _arg("--claims", default="all", help="comma list of claim ids or 'all'"),
        _arg("--timings", action="store_true", help="include millis in JSON reports"),
    ),
    "groebner": (
        _cmd_groebner,
        "print a reduced basis",
        _arg("--ideal", choices=("I", "J", "K", "L", "Q"), required=True),
        _N,
        _arg("--order", choices=tuple(_ORDERS), default="grevlex"),
    ),
    "hilbert": (
        _cmd_hilbert,
        "print a Hilbert series",
        _arg("--ideal", choices=("I", "J", "K"), required=True),
        _N,
    ),
    "character": (
        _cmd_character,
        "print a class function",
        _arg(
            "--kind",
            choices=("xn", "powerset", "half-powerset", "subset", "trivial"),
            required=True,
        ),
        _N,
        _arg("--k", type=int, default=None, help="subset size (kind=subset)"),
    ),
    "socle": (
        _cmd_socle,
        "socle dimension of R/J or R/K",
        _arg("--ideal", choices=("J", "K"), required=True),
        _N,
    ),
    "challenge": (_cmd_challenge, "graded character of R/K as t-series", _N),
    "points": (_cmd_points, "list the point configuration", _N),
    "triangle": (
        _cmd_triangle,
        "symmetrised triangle rows",
        _arg("--n", type=_parse_n_range, required=True, metavar="A..B"),
    ),
}


def run(argv=None) -> int:
    """Parse ``argv``, run one command and print its output: a JSON object
    per record under ``--format json``, its text lines otherwise."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        args.pair_cap = _resolve_cap(parser, args)
        _check_n(parser, args, args.n if isinstance(args.n, range) else (args.n,))
        records, lines, code = _COMMANDS[args.command][0](parser, args)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if args.format == "json":
        lines = [json.dumps(record, sort_keys=True) for record in records]
    sys.stdout.write("".join(line + "\n" for line in lines))
    if args.command == "verify":
        print(_verify_summary(records), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
