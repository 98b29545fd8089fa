"""Property test of the exit-code contract on mutated bundled instances.

Each example takes a bundled instance file and deletes one top-level
field or one field of its first cutting entry, or replaces that field with
a small JSON value of another type.  `bound`, `dp` and `classify` must
still end with one of the documented exit codes, never with a traceback;
`classify` carries the mutated `cutting` and `ambient_homogeneous` fields
through the complete-intersection input and its classification.
"""

import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from seshadri.cli import EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main

INSTANCES = sorted(
    path.name for path in (resources.files("seshadri") / "instances").iterdir()
    if path.name.endswith(".json")
)
TOP_LEVEL = ("variables", "ambient", "cutting", "point", "ambient_homogeneous",
             "primes", "seed", "description")
ENTRY = ("expression", "degree")
DELETE = object()
SMALL_VALUES = (None, False, True, 0, 2, -1, 2.5, "", "x1", [], [0], ["x1"], {}, {"x": 1})


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    if isinstance(value, (int, float)):
        return float
    return type(value)


@settings(max_examples=90, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(INSTANCES),
    field=st.sampled_from(TOP_LEVEL + tuple(f"cutting.{f}" for f in ENTRY)),
    value=st.sampled_from((DELETE,) + SMALL_VALUES),
    command=st.sampled_from(("bound", "dp", "classify")),
)
def test_mutated_instance_exits_with_a_documented_code(name, field, value, command):
    raw = json.loads((resources.files("seshadri") / "instances" / name).read_text())
    target = raw
    if field.startswith("cutting."):
        assume(raw["cutting"])
        target = raw["cutting"][0]
        field = field.split(".", 1)[1]
    if value is DELETE:
        target.pop(field, None)
    else:
        assume(_json_type(value) is not _json_type(target.get(field)))
        target[field] = value
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        path.write_text(json.dumps(raw))
        code = main([command, str(path)])
    assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_INTERNAL)
