"""Everything the library offers is used by the code that ships.

The library's callers are its own modules, the CLI, `scripts/` and the
benchmark in `perfbench/`.  Three checks hold the library to them:

- every public name is read by one of them;
- every defaulted parameter of a library function is passed, by keyword or
  by position, in some shipped call to that function's name;
- every method, dataclass field and `self.` attribute a library class
  defines is read as an attribute in shipped code.

The converse holds too: every function `perfbench/spans.py` wraps by name
exists, since the benchmark's traced run would otherwise stop on an
AttributeError that no other test meets.

Anything else serves only tests: a test reference belongs in
`tests/oracles.py`, a setting with one value in use is a module constant,
and code that serves only its own tests goes.

The checks match bare names, not what they refer to, so a use of any
same-named thing counts.  Some surfaces they cannot see and have to be
caught by reading:

- a function shadowed by a field of the same name (such as a wrapper named
  like a `FlowInfo` field);
- an attribute whose name another class reads, as `ChainResult.sweeps`
  would have passed on perfbench's own `self.sweeps`;
- a dunder method, which syntax calls rather than an attribute read (a
  `Network.__len__` that nothing used);
- a parameter every shipped call passes with the same value, as
  `validate`'s `profile` was always `STRICT`.
"""

import ast
import glob
import importlib
import os

import diagbn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def library_sources():
    paths = glob.glob(os.path.join(ROOT, "src", "diagbn", "*.py"))
    return sorted(p for p in paths if os.path.basename(p) != "__init__.py")


def shipped_sources():
    paths = library_sources()
    for tree in ("scripts", "perfbench"):
        paths += glob.glob(os.path.join(ROOT, tree, "*.py"))
    return sorted(paths)


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def used_names(path):
    names = set()
    for node in ast.walk(parse(path)):
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


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defaulted_parameters(tree):
    """(function name, parameter, position) for every parameter with a
    default; position counts the arguments a call writes (a method's self
    is not one) and is None for keyword-only parameters."""
    methods = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(fn) in methods else 0
        first_default = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first_default:], start=first_default):
            yield fn.name, arg.arg, k - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def passes(call, param, position):
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_passed_by_shipped_code():
    calls = {}
    for path in shipped_sources():
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node), []).append(node)
    unpassed = sorted(
        f"{name}({param})"
        for path in library_sources()
        for name, param, position in defaulted_parameters(parse(path))
        if not any(passes(call, param, position) for call in calls.get(name, []))
    )
    assert not unpassed, f"defaults that only tests override: {unpassed}"


def class_attributes(tree):
    """(class name, attribute) for every method, class-level field and
    `self.` attribute a class defines, dunders aside."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        names.add(node.attr)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        for name in names:
            if not is_dunder(name):
                yield cls.name, name


def test_every_class_attribute_is_read_by_shipped_code():
    read = {
        node.attr
        for path in shipped_sources()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{cls}.{name}"
        for path in library_sources()
        for cls, name in class_attributes(parse(path))
        if name not in read
    )
    assert not unread, f"attributes only tests read: {unread}"


def test_every_function_the_benchmark_traces_exists():
    # read with ast: perfbench is a directory of scripts, not a package
    tree = parse(os.path.join(ROOT, "perfbench", "spans.py"))
    [listed] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets)
    ]
    functions = ast.literal_eval(listed)
    assert ("sampler", "single_site_move") in functions
    missing = [
        f"{module}.{attr}"
        for module, attr in functions
        if not callable(getattr(importlib.import_module(f"diagbn.{module}"), attr, None))
    ]
    # the one method spans.py patches on its class
    if not callable(getattr(importlib.import_module("diagbn.exact").TransitionMatrix, "apply_sweep", None)):
        missing.append("exact.TransitionMatrix.apply_sweep")
    assert not missing, f"perfbench/spans.py traces what diagbn lacks: {missing}"
