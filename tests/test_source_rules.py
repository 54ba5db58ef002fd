"""lipcot reaches numpy and scipy through their public names only.

A private module or attribute (a dotted segment that starts with ``_`` and
is not a dunder, such as ``scipy.signal._linear_filter``) may move or change
in any release. The source is read as it is, by its syntax tree, for every
import of such a name and every attribute chain that reaches one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lipcot"
ROOTS = ("numpy", "scipy")


def private(segment: str) -> bool:
    """Whether a dotted segment is private: a leading ``_``, and not a dunder."""
    return segment.startswith("_") and not (segment.startswith("__") and segment.endswith("__"))


def private_names(source: str) -> set:
    """The dotted numpy and scipy names ``source`` imports or reads that have a private segment."""
    tree = ast.parse(source)
    bound = {"numpy": "numpy", "np": "numpy", "scipy": "scipy"}  # local name -> dotted name
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                dotted.append(alias.name)
                bound[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                dotted.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            dotted.append(".".join([bound[node.id], *reversed(attrs)]))
    return {
        name
        for name in dotted
        if name.split(".")[0] in ROOTS and any(map(private, name.split(".")))
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_uses_no_private_numpy_or_scipy_name(path):
    assert private_names(path.read_text()) == set()


@pytest.mark.parametrize(
    "source, found",
    [
        ("import scipy.signal._linear_filter", {"scipy.signal._linear_filter"}),
        ("from numpy._core import umath", {"numpy._core.umath"}),
        ("from scipy.signal import _arraytools as at", {"scipy.signal._arraytools"}),
        ("import scipy.signal\nscipy.signal._linear_filter.lfilter(1)",
         {"scipy.signal._linear_filter", "scipy.signal._linear_filter.lfilter"}),
        ("import numpy as np\nnp._core.umath", {"numpy._core", "numpy._core.umath"}),
        ("from numpy.polynomial import polynomial as P\nP._x", {"numpy.polynomial.polynomial._x"}),
        ("import numpy as np\nnp.__version__, np.linalg.norm, self._x, np.__x", {"numpy.__x"}),
        ("from . import _util\nimport secrets\nsecrets._x", set()),
    ],
)
def test_private_names_are_found(source, found):
    assert private_names(source) == found
