"""Spans around the calls into each fsing layer, recorded from outside.

The tracer wraps the public functions that carry each layer's work and
patches every binding of them: a module that did ``from .poly import
frobenius_power_mod_bracket`` holds its own reference, so the wrapper
replaces the function in every ``fsing`` module that holds it, or calls
through that name would go unrecorded.  Each span records its name, start,
end, parent span and the benchmark input it belongs to.  Spans stay in
memory and are written out once, after the run.  A span's self time is its
duration minus the durations of its child spans.

``Field`` arithmetic is counted, not timed: one wrapped call costs more
than the operation itself.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

import fsing.cli
import fsing.field
import fsing.poly
import fsing.report

# (module, attribute, span name).  "Poly.x" names a method.
TRACED = (
    ("fsing.poly", "frobenius_power_mod_bracket", "poly.kernel"),
    ("fsing.poly", "Poly.evaluate", "poly.evaluate"),
    ("fsing.poly", "Poly.shift", "poly.shift"),
    ("fsing.poly", "exact_divide", "poly.exact_divide"),
    ("fsing.structure", "disjoint_factorization", "structure.factor"),
    ("fsing.structure", "is_irreducible_sqfree", "structure.irreducible"),
    ("fsing.frobenius", "fsplit_witness", "frobenius.fsplit"),
    ("fsing.frobenius", "build_regularity_certificate", "frobenius.cert_build"),
    ("fsing.frobenius", "verify_regularity_certificate", "frobenius.cert_verify"),
    ("fsing.frobenius", "fpt_sample_poly", "frobenius.fpt_sample"),
    ("fsing.invariants", "dfpt_at", "invariants.dfpt"),
    ("fsing.invariants", "fpt_crosscheck", "invariants.crosscheck"),
    ("fsing.pipeline", "check_sqfree_sample", "pipeline.sample"),
    ("fsing.pipeline", "modification_build", "pipeline.modify"),
    ("fsing.pipeline", "hypersurface_point_checks", "pipeline.point_checks"),
    ("fsing.io", "parse_poly_file", "io.parse"),
    ("fsing.cli", "main", "cli.main"),
) + tuple(
    ("fsing.report", name, "report.render")
    for name, obj in vars(fsing.report).items()
    if inspect.isfunction(obj) and obj.__module__ == "fsing.report" and not name.startswith("_")
)
# Counts the after-call hooks add, beyond each span's calls and self time.
COUNTS = {
    "poly.kernel.terms_out": "terms/input",
    "structure.factor.fallbacks": "1/input",
    "frobenius.cert_build.stages": "1/input",
    "pipeline.point_checks.grid_points": "calc-pts/input",
    "io.parse.bytes": "B/input",
    "report.bytes": "B/input",
}
FIELD_OPS = ("add", "sub", "neg", "mul", "pow", "inv")
ROOT_SPAN = "bench.input"


def _grid_points(p, n, s_max, budget):
    """Sum of (p^s)^n over the levels s <= s_max a search walks: a count
    computed from the arguments, not observed inside the search."""
    return sum((p**s) ** n for s in range(1, s_max + 1) if (p**s) ** n <= budget)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span recorder; ``install`` patches fsing, ``remove`` undoes it."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start ns, end ns, parent index, input index)
        self.stack = []
        self.counts = {}
        self.field_ops = [0, 0]  # prime field, extension field
        self.input_index = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` adds counts."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.input_index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run_input(self, index, fn, *args):
        """Call ``fn`` as benchmark input ``index`` under a root span."""
        self.input_index = index
        return self.span(ROOT_SPAN, fn)(*args)

    # -- per-layer counts beyond calls and time ----------------------------

    def _after_hooks(self):
        """Hooks by traced attribute name; ``_bound`` sees through a wrapper."""

        def kernel(args, kwargs, result):
            self._count("poly.kernel.terms_out", len(result.terms))

        def factor(args, kwargs, result):
            self._count("structure.factor.fallbacks", int(result.used_fallback))

        def cert(args, kwargs, result):
            self._count("frobenius.cert_build.stages", len(result.stages))

        def point_checks(args, kwargs, result):
            a = _bound(sys.modules["fsing.pipeline"].hypersurface_point_checks, args, kwargs)
            f = a["f"]
            grid = _grid_points(f.field.p, f.vars.n, a["s_max"], a["budget"])
            self._count("pipeline.point_checks.grid_points", grid)

        def parse(args, kwargs, result):
            self._count("io.parse.bytes", len(result.source.encode()))

        def report(args, kwargs, result):
            self._count("report.bytes", len(result.encode()))

        return {
            "frobenius_power_mod_bracket": kernel,
            "disjoint_factorization": factor,
            "build_regularity_certificate": cert,
            "hypersurface_point_checks": point_checks,
            "parse_poly_file": parse,
            "to_json": report,
        }

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._after_hooks()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fsing" or name.startswith("fsing.")]
        for module_name, attr, span_name in TRACED:
            if attr.startswith("Poly."):
                method = attr.split(".", 1)[1]
                orig = vars(fsing.poly.Poly)[method]
                self._set(fsing.poly.Poly, method, self.span(span_name, orig))
                continue
            orig = getattr(sys.modules[module_name], attr)
            wrapper = self.span(span_name, orig, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        ops = self.field_ops
        for op in FIELD_OPS:
            orig = vars(fsing.field.Field)[op]

            def counted(field, *args, _orig=orig):
                ops[field.s > 1] += 1
                return _orig(field, *args)

            self._set(fsing.field.Field, op, functools.wraps(orig)(counted))

    def remove(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for k, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls, self_ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, self_ns + (end - start) - child[k])
        return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}

    def write(self, path):
        """Spans as gzipped JSON lines: a header naming the span ids, then
        [name id, start ns, end ns, parent index, input index] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
