"""``src/cqmeans`` uses no numpy name newer than the ``numpy>=1.24`` that
``pyproject.toml`` promises.

Only one numpy is installed, so a name that NumPy 1.25 or 2.x added would pass
every other test and fail on the oldest supported install.  This reads the
source with ``ast`` instead of running it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cqmeans"
MODULES = sorted(SRC.glob("*.py"))

# names under ``numpy`` that 1.24 lacks: 1.25 added ``dtypes`` and ``exceptions``; 2.0 the
# array-API names and aliases, ``bitwise_count``, ``trapezoid`` and ``strings``, and brought
# ``bool`` back; 2.1 ``unstack`` and the cumulative functions; 2.2 ``matvec`` and ``vecmat``
NEWER_NAMES = frozenset("""
    dtypes exceptions
    astype isdtype concat permute_dims matrix_transpose vecdot pow bool long ulong
    acos asin atan atan2 acosh asinh atanh bitwise_left_shift bitwise_right_shift
    bitwise_invert unique_all unique_counts unique_inverse unique_values bitwise_count
    trapezoid strings linalg.matrix_norm linalg.vector_norm linalg.vecdot
    linalg.matrix_transpose linalg.svdvals linalg.outer linalg.cross linalg.diagonal
    linalg.trace linalg.tensordot linalg.matmul
    unstack cumulative_sum cumulative_prod
    matvec vecmat
""".split())


def newer_names(source):
    """The names of NEWER_NAMES that ``source`` reaches through numpy, with their lines."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            prefix = node.module[len("numpy."):] + "." if "." in node.module else ""
            found += [(node.lineno, prefix + alias.name) for alias in node.names
                      if prefix + alias.name in NEWER_NAMES]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.insert(0, value.attr)
                value = value.value
            name = ".".join(parts)
            if isinstance(value, ast.Name) and value.id in aliases and name in NEWER_NAMES:
                found.append((node.lineno, name))
    return sorted(found)


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_numpy_name_newer_than_the_floor(module):
    assert newer_names(module.read_text(encoding="utf-8")) == []


def test_the_check_sees_every_spelling():
    source = """
import numpy as xp
import numpy
from numpy import unstack, sort
from numpy.linalg import vector_norm
x = xp.bitwise_count(a) + numpy.linalg.vecdot(a, b) + xp.sort(a).astype(float) + xp.atan2(a, b)
"""
    assert newer_names(source) == [(4, "unstack"), (5, "linalg.vector_norm"), (6, "atan2"),
                                   (6, "bitwise_count"), (6, "linalg.vecdot")]
