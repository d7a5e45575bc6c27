"""Everything the library offers is used by the code that ships.

The library's callers are its own modules, the CLI, `scripts/` and the
benchmark in `perfbench/`.  Four checks hold the library to them:

- every public name is read by one of them;
- every module-level function and class, private ones too, is read by one
  of them or wrapped by name in `perfbench/spans.py`;
- every defaulted parameter of a library function is passed, by keyword or
  by position, in some shipped call to that function's name;
- every method, dataclass field and `self.` attribute a library class
  defines is read as an attribute in shipped code.

The converse holds too: every function `perfbench/spans.py` wraps by name
exists, since the benchmark's traced run would otherwise stop on an
AttributeError that no other test meets.

A chain fixes its strategy, network, evidence, clamp, credits and pair
scopes, so no sampler or exact function handed a chain as `state` takes
any of them beside it.  Moves credit sums only: a chain's two visit
totals are written where the chain is built, by the sweep loops'
`_close_stretch`, at the burn-in reset and by the merge of chains.  Once
a chain is set up, `flip` is the one writer of its values, survivals and
cached conditionals besides the refresh and the refill of a cache entry.

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
  `validate`'s `profile` was always `STRICT`;
- a value a function could read from the chain it is handed, passed
  beside it under a name the chain check does not list, or beside a chain
  parameter not named `state`.
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


def shipped_names():
    sources = shipped_sources()
    assert any(p.endswith(os.path.join("perfbench", "run.py")) for p in sources)
    used = set()
    for path in sources:
        used |= used_names(path)
    return used


def traced_functions():
    """The (module, function) pairs `perfbench/spans.py` wraps by name."""
    # read with ast: perfbench is a directory of scripts, not a package
    tree = parse(os.path.join(ROOT, "perfbench", "spans.py"))
    [listed] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets)
    ]
    return ast.literal_eval(listed)


def test_lazy_exports_resolve():
    # the names from bench and exact are resolved on first access
    from diagbn import (
        EnumerationCapError,
        TransitionMatrix,
        exact_posteriors,
        explicit_transition_matrix,
        run_experiment,
    )
    from diagbn import bench, exact

    assert exact_posteriors is exact.exact_posteriors
    assert explicit_transition_matrix is exact.explicit_transition_matrix
    assert TransitionMatrix is exact.TransitionMatrix
    assert EnumerationCapError is exact.EnumerationCapError
    assert run_experiment is bench.run_experiment
    assert all(hasattr(diagbn, name) for name in diagbn.__all__)
    assert set(diagbn.__all__) <= set(dir(diagbn))


def test_every_export_is_used_outside_tests():
    unused = sorted(set(diagbn.__all__) - shipped_names())
    assert not unused, f"exported but called only from tests: {unused}"


def test_every_module_level_definition_is_used_outside_tests():
    used = shipped_names() | {function for _, function in traced_functions()}
    unused = sorted(
        f"{os.path.basename(path)[:-3]}.{node.name}"
        for path in library_sources()
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )
    assert not unused, f"defined in the library but used only by tests: {unused}"


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
    functions = traced_functions()
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


# what a chain fixes, which a function handed the chain reads from it
CHAIN_FIXES = {"rule", "strategy", "net", "ev", "clamp", "sums", "touched"}


def test_no_function_takes_what_its_chain_fixes():
    passed = sorted(
        f"{os.path.basename(path)[:-3]}.{fn.name}({param})"
        for path in library_sources()
        if os.path.basename(path) in ("sampler.py", "exact.py")
        for fn in ast.walk(parse(path))
        if isinstance(fn, ast.FunctionDef)
        for params in [[a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]]
        if params[:1] == ["state"]
        for param in params
        if param in CHAIN_FIXES
    )
    assert not passed, f"arguments the chain already fixes: {passed}"


VISIT_TOTALS = {"sweeps", "redraws"}


def names_a_total(target):
    """True when an assignment target is `<anything>.sweeps` or
    `<anything>.redraws`, or an unpacked part of one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(names_a_total(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return names_a_total(target.value)
    return isinstance(target, ast.Attribute) and target.attr in VISIT_TOTALS


def assignment_targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.NamedExpr)):
        return [node.target]
    return []


def writers(node, scope, names_it, found):
    """Add to `found` the dotted scope of every assignment under `node` to
    a target that `names_it` accepts."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if any(names_it(t) for t in assignment_targets(node)):
        found.add(scope)
    for child in ast.iter_child_nodes(node):
        writers(child, scope, names_it, found)
    return found


def library_writers(names_it):
    found = set()
    for path in library_sources():
        writers(parse(path), os.path.basename(path)[:-3], names_it, found)
    return found


def test_only_the_stretch_close_writes_visit_counts():
    # a move credits sums; the sweep loops count every visit once per
    # stretch, in `_close_stretch`, and the whole runs clear and merge
    assert library_writers(names_a_total) == {
        "sampler.SamplerState.__init__",
        "sampler._close_stretch",
        "sampler._run_chains",
        "sampler.sample_posteriors",
    }


CHAIN_ARRAYS = {"x", "surv", "cache", "odds_cache"}


def names_a_chain_item(target):
    """True when an assignment target is an item of `x`, `surv`, `cache`
    or `odds_cache`, bare or as an attribute, or an unpacked part of one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(names_a_chain_item(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return names_a_chain_item(target.value)
    if not isinstance(target, ast.Subscript):
        return False
    array = target.value
    if isinstance(array, ast.Attribute):
        return array.attr in CHAIN_ARRAYS
    return isinstance(array, ast.Name) and array.id in CHAIN_ARRAYS


def test_only_flip_changes_a_chain_value_after_set_up():
    # a chain's values, survivals and cached conditionals change where the
    # chain is set up, refreshed or refilled, and otherwise only in `flip`,
    # which clears what the change makes stale; `_underflow_weights` sets
    # pair values and puts them back (test_sampler.py checks it does)
    assert library_writers(names_a_chain_item) == {
        "sampler.SamplerState.__init__",
        "sampler.SamplerState.flip",
        "sampler.SamplerState.refresh_survivals",
        "sampler.SamplerState.fill_odds",
        "sampler.setup_chain",
        "sampler._underflow_weights",
    }
