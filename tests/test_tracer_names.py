"""The names perfbench/tracer.py patches by string exist in the package.

The tracer replaces each function of its `TRACED` table by name and wraps
`Ideal.groebner_basis`, reading `_basis_cache`; a rename would leave
`--trace 1` broken without failing a test.  The table is read from the
file's syntax tree, so nothing of perfbench is imported or run.
"""

import ast
import importlib
from pathlib import Path

from seshadri.groebner import Ideal

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no TRACED table")


def test_every_traced_function_exists():
    traced = _traced()
    assert "groebner" in traced
    for short, names in traced.items():
        module = importlib.import_module(f"seshadri.{short}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"seshadri.{short} lacks {missing}"


def test_the_basis_cache_probe_finds_its_attributes():
    assert callable(Ideal.groebner_basis)
    assert "_basis_cache" in Ideal.__slots__
