"""pyproject.toml declares numpy>=1.23, so the library may use no name that
only NumPy 2 has.  A suite run on NumPy 2 alone would not notice one; this
scan of the source does."""

import re
from pathlib import Path

import pytest

import foamtor

SOURCES = sorted(Path(foamtor.__file__).parent.glob("*.py"))

NUMPY2_ONLY = re.compile(
    r"\.m[TH]\b"
    r"|\bnp\.(trapezoid|concat|permute_dims|vecdot|unstack|isdtype|cumulative_sum"
    r"|pow|acos|asin|atan|atan2)\b"
    r"|\bnp\.linalg\.(matrix_transpose|vector_norm|matrix_norm|svdvals)\b")


def numpy2_names(text):
    """(line number, name) of every NumPy-2-only name in a source text."""
    return [(n, m.group(0)) for n, line in enumerate(text.splitlines(), start=1)
            for m in NUMPY2_ONLY.finditer(line)]


def test_the_scan_finds_each_numpy2_only_name():
    text = "\n".join(["x.mT", "x.mH", "np.trapezoid(y)", "np.concat(xs)", "np.pow(a, b)",
                      "np.atan2(y, x)", "np.linalg.svdvals(a)", "np.linalg.vector_norm(v)"])
    assert [n for n, _ in numpy2_names(text)] == list(range(1, 9))
    # their NumPy 1 spellings pass
    text = "np.concatenate(xs)\nnp.arctan2(y, x)\nnp.power(a, b)\nnp.swapaxes(x, -1, -2)"
    assert numpy2_names(text) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_uses_no_numpy2_only_name(path):
    assert numpy2_names(path.read_text(encoding="utf-8")) == []
