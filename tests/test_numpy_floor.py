"""pyproject.toml declares numpy>=1.23 and scipy>=1.9, so the library may use
no name that only NumPy 2 has, and no private numpy or scipy module, whose
names and behaviour change between releases without notice.  A suite run on
one numpy and scipy alone would not notice either; these scans of the source
do."""

import ast
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


def private_imports(text):
    """(line number, module) of every import of a private numpy or scipy
    module in a source text: a dotted path with a component that starts with
    an underscore, or such a name imported from a numpy or scipy module."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            paths = [node.module + "." + alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, path) for path in paths
                  if path.split(".")[0] in ("numpy", "scipy")
                  and any(part.startswith("_") for part in path.split("."))]
    return sorted(found)


def test_the_scan_finds_each_private_numpy_or_scipy_import():
    text = "\n".join(["from scipy.optimize._minpack import _lmder",
                      "import numpy.linalg._umath_linalg",
                      "from numpy.linalg import _umath_linalg",
                      "from scipy.optimize import _minpack as mp",
                      "def f():\n    from numpy._core import multiarray",
                      "import numpy._core.umath as um, os"])
    assert [n for n, _ in private_imports(text)] == [1, 2, 3, 4, 6, 7]
    # public modules, and the package's own private names, pass
    text = ("from scipy.optimize import leastsq\nimport numpy as np\n"
            "import numpy.linalg\nfrom .twisted import _complex_columns\n"
            "from json.encoder import encode_basestring_ascii as _json_str")
    assert private_imports(text) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_no_private_numpy_or_scipy_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
