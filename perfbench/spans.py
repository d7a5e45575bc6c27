"""Spans around the calls into each diagbn layer, recorded from outside.

`Tracer.install()` replaces module attributes of the diagbn package with
timing wrappers, in every diagbn module namespace that holds the same
function object (so `from .sampler import run_chain` in bench.py is wrapped
too), and `Tracer.uninstall()` puts every original back.

Each wrapped call is a span with a name, a start, an end, a parent and a
root: the top-level call (one workload operation) it belongs to.  The
sampler's moves, the sweep loop and the other per-sweep helpers run hundreds
of thousands of times per round, so for those names only count, total time
and self time are aggregated; every other call is kept as a span and written
out by `write_spans`.  Self time is a span's duration minus the time its
wrapped children took.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute) pairs wrapped as plain functions
FUNCTIONS = [
    ("network", "parse_network"),
    ("network", "validate"),
    ("flow", "clamp_pass"),
    ("flow", "classify_flow"),
    ("generate", "generate_network"),
    ("generate", "generate_cases"),
    ("exact", "exact_posteriors"),
    ("exact", "explicit_transition_matrix"),
    ("sampler", "setup_chain"),
    ("sampler", "run_sweep"),
    ("sampler", "pair_nodes"),
    ("sampler", "single_site_move"),
    ("sampler", "swap_pair_move"),
    ("sampler", "block_pair_move"),
    ("sampler", "forward_redraw"),
    ("sampler", "estimate_marginals"),
    ("sampler", "run_chain"),
    ("sampler", "sample_posteriors"),
    ("bench", "error_count"),
    ("bench", "run_experiment"),
    ("cli", "main"),
]

# names called per move or per sweep: aggregated, never stored as spans
AGGREGATED = {
    "sampler.run_sweep",
    "sampler.pair_nodes",
    "sampler.single_site_move",
    "sampler.swap_pair_move",
    "sampler.block_pair_move",
    "sampler.forward_redraw",
    "bench.error_count",
}


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        # event counters measured at the boundary, e.g. flips per single-site move
        self.events = defaultdict(int)
        self.spans = []  # (id, parent id, root id, name, start, end)
        self._stack = []  # [span id, child seconds, root span id]
        self._next_id = 0
        self._patched = []  # (namespace dict or class, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        root = self._stack[-1][2] if self._stack else self._next_id
        frame = [self._next_id, 0.0, root]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if name not in AGGREGATED:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, frame[2], name, start, end))

    def _wrap(self, name, fn, observe=None):
        """Time fn.  `observe(args, kwargs)`, for boundary counters, runs
        before the call and may return a callback that sees the result."""
        enter, exit_ = self._enter, self._exit

        if observe is None:
            def wrapper(*args, **kwargs):
                frame = enter()
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(name, frame, start, _clock())
        else:
            def wrapper(*args, **kwargs):
                after = observe(args, kwargs)
                frame = enter()
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(name, frame, start, _clock())
                if after is not None:
                    after(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- boundary counters ---------------------------------------------------

    def _observers(self):
        ev = self.events

        def single(args, kwargs):
            state, n = args[0], args[1]
            before = state.x[n]

            def after(_):
                if state.x[n] != before:
                    ev["single_site_move.flips"] += 1
            return after

        def swap(args, kwargs):
            state, a, b = args[0], args[1], args[2]
            xa, xb = state.x[a], state.x[b]
            if xa == xb:
                ev["swap_pair_move.identity"] += 1
                return None

            def after(_):
                if state.x[a] != xa:
                    ev["swap_pair_move.accepted"] += 1
            return after

        def block(args, kwargs):
            state, a, b = args[0], args[1], args[2]
            xa, xb = state.x[a], state.x[b]

            def after(_):
                if state.x[a] != xa or state.x[b] != xb:
                    ev["block_pair_move.changed"] += 1
            return after

        def pairs(args, kwargs):
            def after(result):
                ev["pair_nodes.pairs"] += len(result[0])
            return after

        def enumerate_states(args, kwargs):
            net, evidence = args[0], args[1]
            ev["exact_posteriors.states"] += 1 << (len(net.ids) - len(evidence))
            return None

        def matrix(args, kwargs):
            def after(result):
                ev["explicit_transition_matrix.moves"] += len(result.moves)
            return after

        return {
            "sampler.single_site_move": single,
            "sampler.swap_pair_move": swap,
            "sampler.block_pair_move": block,
            "sampler.pair_nodes": pairs,
            "exact.exact_posteriors": enumerate_states,
            "exact.explicit_transition_matrix": matrix,
        }

    # -- install / uninstall -------------------------------------------------

    def install(self):
        modules = {
            key.partition(".")[2]: mod
            for key, mod in sys.modules.items()
            if (key == "diagbn" or key.startswith("diagbn.")) and mod is not None
        }
        observers = self._observers()
        for modname, attr in FUNCTIONS:
            original = getattr(modules[modname], attr)
            name = f"{modname}.{attr}"
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules.values():
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        ns[key] = wrapper
        # a method: patched on the class, seen by every TransitionMatrix
        cls = modules["exact"].TransitionMatrix
        original = cls.apply_sweep
        self._patched.append((cls, "apply_sweep", original))
        cls.apply_sweep = self._wrap("exact.apply_sweep", original)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        doc = {
            "aggregated": {
                name: {
                    "count": self.count[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.count)
            },
            "events": dict(sorted(self.events.items())),
            "spans": [
                {"id": i, "parent": p, "root": root, "name": n, "start": s, "end": e}
                for i, p, root, n, s, e in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
