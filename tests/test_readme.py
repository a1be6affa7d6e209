"""Every python example in README.md runs, and says what it returns.

A block is run as it stands.  Then each unindented line of the form
`expression  # literal` is evaluated again in the block's namespace, and
must equal the literal; a comment that is not a literal is prose.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def claimed_values(block):
    """(expression, value) for each unindented line whose comment is a literal."""
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep or line[:1].isspace():
            continue
        try:
            yield code.strip(), ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2
    assert sum(len(list(claimed_values(block))) for block in BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    namespace = {}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    for expression, value in claimed_values(BLOCKS[index]):
        assert eval(expression, namespace) == value, expression
