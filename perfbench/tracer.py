"""Spans around hypersecant's public functions, recorded from outside the program.

Each target function is rebound, in every hypersecant module that imported
it, to a wrapper that records one span per call: ``[id, parent id, name,
start, end, attrs]`` with perf_counter times.  Spans stay in memory until
the runner prints them.  ``uninstall`` restores the original bindings.

Not wrapped: ``CircularTermOrder.key`` (about 1.27M calls per command, so a
wrapper would distort the run) and everything inside forked pool workers,
whose spans never reach the parent; for the pool, the buchberger_verify span
carries the SPairStats counts, the workers' CPU and the worker count.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from math import comb
from typing import Callable, NamedTuple


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _pool_probe(tracer: "Tracer"):
    return _children_cpu_s(), tracer.fork_count()


def _materialize_generators(args):
    # MonomialIdeal(generators) is often handed a lazy generator whose items
    # cost leading-term or cycle computations; draining it before the span
    # opens keeps the span to minimalization alone.
    if len(args) > 1:
        args = (args[0], list(args[1])) + args[2:]
    return args


def _after_buchberger(attrs, args, result, before, after):
    s = result.spair_stats
    attrs.update(
        count=s.count,
        skipped_coprime=s.skipped_coprime,
        reduced=s.reduced,
        max_terms=s.max_terms,
        child_cpu_s=after[0] - before[0],
        workers=after[1] - before[1],
    )


def _after_basis(attrs, args, result, before, after):
    attrs.update(generators=len(result), terms=sum(p.term_count for p in result))


def _after_master(attrs, args, result, before, after):
    attrs["terms"] = result.term_count


def _after_monomial_ideal(attrs, args, result, before, after):
    attrs.update(gens_in=len(args[1]) if len(args) > 1 else 0, gens_kept=len(args[0]))


def _after_odd_cycles(attrs, args, result, before, after):
    g, max_len = args[0], args[1]
    nv = g.vertex_count
    attrs["cycles"] = len(result)
    # Computed from binomials, not counted: the subsets the brute force visits.
    attrs["subsets_examined"] = sum(comb(nv, size) for size in range(3, min(max_len, nv) + 1, 2))


class Target(NamedTuple):
    """A function to trace; a dotted ``attr`` names a method of a class.

    ``prepare(args)`` may rewrite the arguments before the span opens,
    ``probe(tracer)`` is read before and after the call, and
    ``after(attrs, args, result, before, after)`` fills the span's attrs.
    """

    module: str
    attr: str
    span: str
    after: Callable | None = None
    prepare: Callable | None = None
    probe: Callable | None = None


TARGETS = (
    Target("hypersecant.groebner", "buchberger_verify", "groebner.buchberger_verify",
           _after_buchberger, probe=_pool_probe),
    Target("hypersecant.groebner", "delightful_check", "groebner.delightful_check"),
    Target("hypersecant.groebner", "secant_gb", "groebner.secant_gb", _after_basis),
    Target("hypersecant.groebner", "symbolic_square_gb", "groebner.symbolic_square_gb", _after_basis),
    Target("hypersecant.hypersimplex", "in_secant_ideal", "hypersimplex.in_secant_ideal"),
    Target("hypersecant.hypersimplex", "in_toric_ideal", "hypersimplex.in_toric_ideal"),
    Target("hypersecant.hypersimplex", "MonomialIdeal.__init__", "hypersimplex.MonomialIdeal",
           _after_monomial_ideal, prepare=_materialize_generators),
    Target("hypersecant.poly", "substitute_rank", "poly.substitute_rank"),
    Target("hypersecant.poly", "partial_derivative", "poly.partial_derivative"),
    Target("hypersecant.master", "master_polynomial", "master.master_polynomial", _after_master),
    Target("hypersecant.master", "verify_prolongation", "master.verify_prolongation"),
    Target("hypersecant.noncrossing", "induced_odd_cycles", "noncrossing.induced_odd_cycles",
           _after_odd_cycles),
    Target("hypersecant.noncrossing", "symbolic_square_of_edge_ideal",
           "noncrossing.symbolic_square_of_edge_ideal"),
    Target("hypersecant.noncrossing", "admissible_sequences", "noncrossing.admissible_sequences"),
    Target("hypersecant.order", "CircularTermOrder.leading_term", "order.leading_term"),
)


class Tracer:
    """In-memory span recorder that rebinds the TARGETS while installed."""

    def __init__(self, fork_count):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.fork_count = fork_count

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        tracer = self
        name, after, prepare, probe = target.span, target.after, target.prepare, target.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            before = probe(tracer) if probe else None
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(rec[5], args, result, before, probe(tracer) if probe else None)
            return result

        return traced

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, fn_name = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self._wrap(target, original)
            if owner_name:
                self._rebind(owner, fn_name, wrapped)
                continue
            # Rebind the function wherever it was imported by name.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "hypersecant" or mod_name.startswith("hypersecant.")) and (
                    vars(mod).get(fn_name) is original
                ):
                    self._rebind(mod, fn_name, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
