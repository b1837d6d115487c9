"""The Python examples of README.md run and print what their comments say."""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
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
