"""Every public name of the library is used by the code that ships.

The library's callers are its own modules, the CLI, `scripts/` and the
benchmark in `perfbench/`.  A public name that none of them reads serves
only tests: a test reference belongs in `tests/oracles.py`, and code that
serves only its own tests goes.

One limit: the scan collects bare names, not what they refer to, so an
attribute read counts as a use of any public name it spells.  A function
shadowed by a field of the same name (such as a wrapper named like a
`FlowInfo` field) passes the check and has to be caught by reading.
"""

import ast
import glob
import os

import diagbn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped_sources():
    paths = glob.glob(os.path.join(ROOT, "src", "diagbn", "*.py"))
    paths = [p for p in paths if os.path.basename(p) != "__init__.py"]
    for tree in ("scripts", "perfbench"):
        paths += glob.glob(os.path.join(ROOT, tree, "*.py"))
    return sorted(paths)


def used_names(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_outside_tests():
    sources = shipped_sources()
    assert any(p.endswith(os.path.join("perfbench", "run.py")) for p in sources)
    used = set()
    for path in sources:
        used |= used_names(path)
    unused = sorted(set(diagbn.__all__) - used)
    assert not unused, f"exported but called only from tests: {unused}"
