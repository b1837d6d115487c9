"""The Python examples of README.md run and print what their comments say,
and its export paragraph lists what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
INIT = README.parent / "src" / "artinforge" / "__init__.py"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def run_block(source: str) -> list:
    """(line number, printed text) for each print call of ``source``."""
    printed = []

    def record(*args):
        printed.append((sys._getframe(1).f_lineno, " ".join(map(str, args))))

    exec(compile(source, "README.md", "exec"), {"print": record})
    return printed


def test_readme_examples_print_the_values_in_their_comments():
    assert BLOCKS
    seen = []
    for source in BLOCKS:
        lines = source.splitlines()
        printed = run_block(source)
        assert printed, source
        for lineno, text in printed:
            # the comment opens with the printed value, then ":" and prose
            comment = lines[lineno - 1].partition("#")[2].strip()
            assert comment == text or comment.startswith(text + ":"), (comment, text)
            seen.append(text)
    assert seen == ["[1, 5, 11, 15, 11, 5, 1]", "(1, True)", "pass", "pass"]


def readme_exports(text: str) -> dict:
    """module -> the names that the export paragraph of ``text`` lists under
    it.  The paragraph opens with the errors, then introduces each module as
    "from `module`", and ends where polynomials are read."""
    start = text.index("`import artinforge` exports")
    paragraph = text[start : text.index("Polynomials are read", start)]
    head, *rest = re.split(r"from\s+`(\w+)`", paragraph)
    sections = {"errors": head, **dict(zip(rest[::2], rest[1::2]))}
    return {
        module: set(re.findall(r"`(\w+)`", body)) for module, body in sections.items()
    }


def init_imports() -> dict:
    """module -> the names that ``artinforge/__init__.py`` imports from it."""
    return {
        node.module: {alias.name for alias in node.names}
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
    }


def test_readme_export_paragraph_lists_each_import_under_its_module():
    listed, imported = readme_exports(README.read_text()), init_imports()
    assert set().union(*listed.values()) == set().union(*imported.values())
    assert listed == imported


@pytest.mark.parametrize(
    "old, new",
    [
        # an export left out, a name that is not exported, a misplaced name
        ("`challenge_series`, ", ""),
        ("`reptheory` `ClassFunction`", "`reptheory` `Stale`, `ClassFunction`"),
        ("`substitute_ideal`", "`substitute_ideal`, `verify`"),
    ],
)
def test_the_export_check_sees_a_drifted_paragraph(old, new):
    text = README.read_text()
    assert text.count(old) == 1
    assert readme_exports(text.replace(old, new)) != init_imports()
