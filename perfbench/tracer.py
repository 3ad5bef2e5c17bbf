"""Outside-in tracing of the preclones layers.

The tracer replaces public functions and methods of the library with
timing wrappers, from outside: nothing in ``src/`` changes.  A wrapped
call records a span (job, id, parent span, name, start, end) in memory;
the hot primitives, called millions of times, add to per-name counters
instead.  Every wrapper keeps a stack of child-time accumulators, so a
name's self time is its inclusive time minus the traced calls underneath.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter_ns

# (module, attribute) of the functions that get one span per call
SPANNED = [
    ("preclones.cli", "load_formula_file"),
    ("preclones.logic", "parse_formula"),
    ("preclones.automata", "minimize"),
    ("preclones.preclone", "transformation_pgpair"),
    ("preclones.preclone", "close_under_composition"),
    ("preclones.preclone", "close_for_evaluation"),
    ("preclones.preclone", "quotient"),
    ("preclones.preclone", "check_axioms"),
    ("preclones.preclone", "load_preclone"),
    ("preclones.syntactic", "syntactic_pgpair"),
    ("preclones.syntactic", "syntactic_congruence"),
    ("preclones.syntactic", "find_isomorphism"),
    ("preclones.syntactic", "enumerate_contexts"),
    ("preclones.blockprod", "relabel"),
    ("preclones.compiler", "compile_atomic"),
    ("preclones.compiler", "compile_formula"),
    ("preclones.compiler", "check_equivalence"),
]
# called per structure or per node: counters only
HOT = [
    ("preclones.logic", "satisfies"),
    ("preclones.logic", "characteristic_tree"),
    ("preclones.compiler", "membership"),
]
GENERATORS = [
    ("preclones.trees", "enumerate_trees"),
    ("preclones.logic", "structures"),
]


def _layer(module_name, attr):
    return module_name.rsplit(".", 1)[1] + "." + attr


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (job, id, parent, name, start_ns, end_ns)
        self.agg = {}  # name -> [calls, inclusive_ns, self_ns]
        self.counts = {}  # name -> number (items, elements, states, ...)
        self._child = [0]  # child-time accumulators, one per open call
        self._open = [None]  # ids of the open spans
        self._undo = []
        # distinct-argument bookkeeping, reset per job; ``_keep`` holds the
        # objects whose id() is part of a key so no id is reused meanwhile
        self._seen = {}
        self._keep = {}
        self._returned = {}

    # -- job boundaries ---------------------------------------------------

    def begin_job(self, name):
        self.end_job()
        self.job = name

    def end_job(self):
        for name, seen in self._seen.items():
            self.add(name, len(seen))
        self._seen.clear()
        self._keep.clear()
        self._returned.clear()
        self.job = None

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _distinct(self, name, owner, key):
        seen = self._seen.get(name)
        if seen is None:
            seen = self._seen[name] = set()
        if key not in seen:
            seen.add(key)
            self._keep[id(owner)] = owner

    # -- wrappers -----------------------------------------------------------

    def _rec(self, name):
        return self.agg.setdefault(name, [0, 0, 0])

    def span(self, name, fn, after=None):
        rec = self._rec(name)
        child, opened, spans = self._child, self._open, self.spans

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = opened[-1]
            opened.append(sid)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                dt = t1 - t0
                inner = child.pop()
                opened.pop()
                child[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                spans[sid] = (self.job, sid, parent, name, t0, t1)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn, before=None):
        rec = self._rec(name)
        child = self._child

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                inner = child.pop()
                child[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner

        return wrapper

    def generator(self, name, fn):
        """Time each step of a generator; count calls and items."""
        rec = self._rec(name)
        child = self._child
        items = name + ".items"

        def wrapper(*args, **kwargs):
            rec[0] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                child.append(0)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter_ns() - t0
                    inner = child.pop()
                    child[-1] += dt
                    rec[1] += dt
                    rec[2] += dt - inner
                self.add(items, 1)
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapper):
        """Point every preclones module attribute bound to ``original`` at
        ``wrapper``, including names imported with ``from ... import``."""
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            if not (mod.__name__ == "preclones" or mod.__name__.startswith("preclones.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import preclones.blockprod as blockprod
        import preclones.compiler as compiler
        import preclones.preclone as preclone

        after = {
            "automata.minimize": self._after_minimize,
            "preclone.transformation_pgpair": lambda a, kw, out: self.add(
                "preclone.transformation_pgpair.elements", out.pgpair.preclone.size()),
            "preclone.check_axioms": lambda a, kw, out: self.add(
                "preclone.check_axioms.instances", out.unit_checked + out.assoc_checked),
            "syntactic.enumerate_contexts": lambda a, kw, out: self.add(
                "syntactic.enumerate_contexts.contexts", len(out)),
            "compiler.check_equivalence": lambda a, kw, out: self.add(
                "compiler.check_equivalence.structures", out.checked),
        }
        for module_name, attr in SPANNED:
            name = _layer(module_name, attr)
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self.span(name, original, after.get(name)))
        for module_name, attr in HOT:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self.counter(_layer(module_name, attr), original))
        for module_name, attr in GENERATORS:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self.generator(_layer(module_name, attr), original))

        self._patch_method(preclone.FinitaryPreclone, "compose",
                           self._wrap_preclone_compose(preclone.FinitaryPreclone.compose))
        bp_compose = blockprod.BlockProduct.compose
        self._patch_method(blockprod.BlockProduct, "compose", self.counter(
            "blockprod.compose", bp_compose,
            before=lambda a: self._distinct(
                "blockprod.compose.distinct_t", a[0],
                (id(a[0].T), a[1][1], tuple(g for _, g in a[2]))),
        ))
        self._patch_method(blockprod.BlockProduct, "carrier_pgpair", self.span(
            "blockprod.carrier_pgpair", blockprod.BlockProduct.carrier_pgpair,
            lambda a, kw, out: self.add("blockprod.carrier_pgpair.elements",
                                        out.preclone.size()),
        ))
        self._patch_method(compiler.Compiler, "compile", self.span(
            "compiler.compile", compiler.Compiler.compile, self._after_compile))
        alpha = blockprod.alpha_context_morphism
        self._replace(alpha, lambda *a, **kw: self.counter(
            "blockprod.alpha_apply", alpha(*a, **kw)))

    def _wrap_preclone_compose(self, original):
        """FinitaryPreclone.compose, with distinct (preclone, f, gs) keys."""
        rec = self._rec("preclone.compose")
        child = self._child

        def compose(pre, f, gs):
            gs = tuple(gs)
            self._distinct("preclone.compose.distinct", pre, (id(pre), f, gs))
            child.append(0)
            t0 = perf_counter_ns()
            try:
                return original(pre, f, gs)
            finally:
                dt = perf_counter_ns() - t0
                inner = child.pop()
                child[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner

        return compose

    def _after_minimize(self, args, kwargs, out):
        result = out if isinstance(out, tuple) else (out,)
        self.add("automata.minimize.states_in", args[0].n_states)
        self.add("automata.minimize.states_out", result[0].n_states)

    def _after_compile(self, args, kwargs, out):
        """Count Compiler.compile calls returning an object seen before."""
        compiler_obj = args[0]
        returned = self._returned.setdefault(id(compiler_obj), set())
        self._keep[id(compiler_obj)] = compiler_obj
        if id(out) in returned:
            self.add("compiler.compile.hits", 1)
        else:
            returned.add(id(out))
            self._keep[id(out)] = out

    def uninstall(self):
        self.end_job()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def calls(self, name):
        return self.agg.get(name, [0, 0, 0])[0]

    def inclusive_s(self, name):
        return self.agg.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name):
        return self.agg.get(name, [0, 0, 0])[2] / 1e9

    def count(self, name):
        return self.counts.get(name, 0)

    def job_inclusive_s(self, name):
        """Inclusive time of the spans called ``name``, summed per job."""
        out = {}
        for job, _, _, span_name, t0, t1 in self.spans:
            if span_name == name:
                out[job] = out.get(job, 0.0) + (t1 - t0) / 1e9
        return out
