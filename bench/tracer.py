"""Spans and counts around sphtwist's layers, installed from outside.

Every public function of each module is replaced by a wrapper that records
a span (name, parent span, start, end).  The modules use from-imports, so
each function has several bindings (``twists.minimize`` is the same object
as ``complexes.minimize``); every binding in every loaded sphtwist module is
patched.  A few methods are wrapped on their class: the algebra product and
``invert_local`` only count calls, since they run millions of times.

A layer's self time is its span time minus the time of its direct child
spans.  The per-layer metrics are read from one pass's spans and counts.
"""

import inspect
import sys
import time
from collections import Counter

MODULES = ("algebra", "complexes", "twists", "ktheory", "laurent", "linalg", "cli")


def _summands(M):
    return sum(len(row) for row in M.terms.values())


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.stack = []
        self.counts = Counter()

    def reset(self):
        del self.spans[:]
        del self.stack[:]
        self.counts.clear()

    def span(self, name, fn, before=None, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, *args, **kwargs)
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
                spans[index] = (name, parent, start, end)
            if after is not None:
                after(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap sphtwist in place; the process keeps the wrappers until it exits."""
        from sphtwist.algebra import AlgebraElement, ZigzagAlgebra
        from sphtwist.complexes import ChainMap, GradedVectorComplex

        hooks = {
            "complexes.minimize": (
                lambda c, M, *a, **k: c.update({"minimize_in": _summands(M)}),
                lambda c, M: c.update({"minimize_out": _summands(M)}),
            ),
            "linalg.nullspace": (
                lambda c, rows, ncols, *a, **k: c.update({"nullspace_cells":
                                                           len(rows) * ncols}),
                None,
            ),
        }
        wrapped = {}
        for short in MODULES:
            module = sys.modules["sphtwist." + short]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = "%s.%s" % (short, attr)
                    wrapped[id(obj)] = (obj, self.span(name, obj, *hooks.get(name, ())))
        for modname, module in list(sys.modules.items()):
            if modname != "sphtwist" and not modname.startswith("sphtwist."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
        ZigzagAlgebra.__init__ = self.span("algebra.ZigzagAlgebra",
                                           ZigzagAlgebra.__init__)
        ChainMap.commutes = self.span("complexes.ChainMap.commutes", ChainMap.commutes)
        GradedVectorComplex.homology = self.span(
            "complexes.GradedVectorComplex.homology", GradedVectorComplex.homology)
        AlgebraElement.__mul__ = self.counter("mul", AlgebraElement.__mul__)
        ZigzagAlgebra.invert_local = self.counter("invert_local",
                                                  ZigzagAlgebra.invert_local)

    def aggregate(self):
        """{span name: [calls, total seconds, self seconds]} for the spans so far."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, parent, start, end), child in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return out

    def layer_metrics(self, stdout_bytes):
        """The benchmark's per-layer metrics for the spans and counts so far."""
        agg = self.aggregate()

        def calls(*names):
            return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

        def total(*names):
            return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_time(*names):
            return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

        cli_names = [n for n in agg if n.startswith("cli.")]
        c = self.counts
        return {
            "algebra.build_s": total("algebra.ZigzagAlgebra"),
            "algebra.mul_calls": c["mul"],
            "algebra.invert_local_calls": c["invert_local"],
            "twists.twist_self_s": self_time("twists.twist"),
            "twists.untwist_self_s": self_time("twists.untwist"),
            "twists.apply_word_calls": calls("twists.apply_word"),
            "twists.hom_matrix_s": total("twists.hom_matrix"),
            "complexes.cone_self_s": self_time("complexes.cone"),
            "complexes.commutes_calls": calls("complexes.ChainMap.commutes"),
            "complexes.commutes_s": total("complexes.ChainMap.commutes"),
            "complexes.minimize_self_s": self_time("complexes.minimize"),
            "complexes.minimize_in_summands": c["minimize_in"],
            "complexes.minimize_out_summands": c["minimize_out"],
            "complexes.hom_self_s": self_time("complexes.hom_from_projective",
                                              "complexes.hom_to_projective"),
            "complexes.homology_self_s": self_time(
                "complexes.GradedVectorComplex.homology", "complexes.homology_table"),
            "complexes.iso_calls": calls("complexes.is_isomorphic"),
            "complexes.iso_self_s": self_time("complexes.is_isomorphic"),
            "linalg.nullspace_s": total("linalg.nullspace"),
            "linalg.nullspace_cells": c["nullspace_cells"],
            "linalg.det_calls": calls("linalg.mat_det"),
            "linalg.det_s": total("linalg.mat_det"),
            "linalg.rank_calls": calls("linalg.mat_rank"),
            "linalg.rank_s": total("linalg.mat_rank"),
            "ktheory.burau_s": total("ktheory.burau_matrix"),
            "laurent.mat_mul_calls": calls("laurent.laurent_mat_mul"),
            "laurent.mat_mul_s": total("laurent.laurent_mat_mul"),
            "ktheory.definiteness_s": total("ktheory.definiteness"),
            "ktheory.elliptic_s": total("ktheory.elliptic_word"),
            "cli.main_self_s": self_time(*cli_names),
            "cli.stdout_bytes": stdout_bytes,
        }
