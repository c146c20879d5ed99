"""Span tracer that times calls into the cqmeans modules from outside the package.

For a traced run only, ``Tracer.patched()`` rebinds the attribute each caller
looks up (a module global such as ``harness.theoretical_targets``, or a method
on a generator class) to a wrapper that records a span, and restores every
original on exit, also when the run raises.  No file of the package changes
and an untraced run never sees a wrapper.

A span is ``(name, label, start, end, parent, request, size)``: ``name`` is the
layer metric it feeds, ``label`` the wrapped function, ``parent`` the index of
the enclosing span (-1 at top level), ``request`` the request id set by the
caller and ``size`` an optional work count taken from one positional argument.
Spans are kept in memory and written out by :meth:`Tracer.write` at the end.
"""

import contextlib
import csv
import gzip
import time

from cqmeans import cauchy, cli, estimators, generators, harness

_MISSING = object()

# the harness functions that get spans; their self times add up to harness.self_s
_HARNESS_SPANS = (
    "harness.run_experiment",
    "harness.harmonic_identity_check",
    "harness.clt_diagnostics",
    "harness.theoretical_targets",
)


class _View:
    """Attribute view of a module in which some names are replaced."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, size_arg=None):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = getattr(fn, "__name__", name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = args[size_arg] if size_arg is not None else 0
                spans[index] = (name, label, start, end, parent, self.request, size)

        return traced

    def replace(self, owner, attr, value):
        """Set ``owner.attr`` to ``value``, remembering what to restore."""
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def rebind(self, owner, attr, name, size_arg=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), size_arg))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced call site of cqmeans for the duration of the block."""
        try:
            rng = harness.np.random
            self.replace(harness, "np", _View(harness.np, random=_View(
                rng,
                SeedSequence=self.wrap("harness.seeding", rng.SeedSequence),
                default_rng=self.wrap("harness.seeding", rng.default_rng),
            )))
            for attr in ("run_experiment", "harmonic_identity_check",
                         "clt_diagnostics", "theoretical_targets"):
                self.rebind(harness, attr, f"harness.{attr}")
            for caller in (harness, cli):
                for attr in ("geometric_estimate", "mobius_estimate", "two_step_mobius"):
                    self.rebind(caller, attr, "estimators")
            self.rebind(cli, "main", "cli.main")
            self.rebind(cauchy, "draw", "cauchy.draw", size_arg=2)
            self.rebind(cauchy, "asymptotic_variance_geometric", "cauchy.quadrature")
            self.rebind(cauchy, "integrate_real_line", "cauchy.quadrature")
            self.rebind(estimators, "qam", "generators.qam")
            for cls in (generators.ShiftedLog, generators.MobiusReciprocal):
                self.rebind(cls, "apply", "generators.apply")
                self.rebind(cls, "invert", "generators.invert")
            self.rebind(generators, "branch_log", "branch.branch_log")
            yield self
        finally:
            self.restore()

    def write(self, path):
        """Write the spans as gzipped CSV, times in microseconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "label", "start_us", "end_us", "parent",
                          "request", "size"))
            for i, (name, label, start, end, parent, request, size) in enumerate(self.spans):
                out.writerow((i, name, label, round((start - origin) * 1e6, 3),
                              round((end - origin) * 1e6, 3), parent, request, size))


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, wall_s):
    """Per-layer counts and times from one traced pass of ``wall_s`` seconds."""
    own = self_times(spans)
    calls, busy, self_s, size = {}, {}, {}, {}
    for i, (name, label, start, end, parent, _, n) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if name == "harness.seeding" and label == "default_rng":
            calls["harness.seeding.default_rng"] = calls.get("harness.seeding.default_rng", 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        size[name] = size.get(name, 0) + n
        # busy time counts a span once even when it nests inside its own kind
        # (quadrature calls quadrature), so it is the union over the layer
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + (end - start)
    return {
        "harness.seeding.calls": calls.get("harness.seeding.default_rng", 0),
        "harness.seeding.busy_s": busy.get("harness.seeding", 0.0),
        **{f"{name}.busy_s": busy.get(name, 0.0) for name in _HARNESS_SPANS},
        "harness.self_s": sum(self_s.get(name, 0.0) for name in _HARNESS_SPANS),
        "cauchy.draw.calls": calls.get("cauchy.draw", 0),
        "cauchy.draw.samples": size.get("cauchy.draw", 0),
        "cauchy.draw.busy_s": busy.get("cauchy.draw", 0.0),
        "cauchy.quadrature.busy_s": busy.get("cauchy.quadrature", 0.0),
        "estimators.calls": calls.get("estimators", 0),
        "estimators.busy_s": busy.get("estimators", 0.0),
        "estimators.self_s": self_s.get("estimators", 0.0),
        "generators.qam.calls": calls.get("generators.qam", 0),
        "generators.qam.busy_s": busy.get("generators.qam", 0.0),
        "generators.qam.self_s": self_s.get("generators.qam", 0.0),
        "generators.apply.busy_s": busy.get("generators.apply", 0.0),
        "generators.invert.busy_s": busy.get("generators.invert", 0.0),
        "branch.branch_log.calls": calls.get("branch.branch_log", 0),
        "branch.branch_log.busy_s": busy.get("branch.branch_log", 0.0),
        "cli.main.busy_s": busy.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.wall_s": wall_s,
    }
