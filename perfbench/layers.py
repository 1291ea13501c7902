"""Per-layer counts and self times, by wrapping library functions from outside.

A traced run replaces the functions named in ``LAYERS`` with wrappers that
count calls and measure spans.  A span's self time is its duration minus
the durations of the wrapped calls made inside it.  Spans are folded into
per-name totals as they close, because the cold workloads make millions of
wrapped calls.  A function that the library no longer has is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


# A counter maps a call's arguments and result to (metric suffix, amount).
def _zero_rhs(args, kwargs, result):
    b = kwargs.get("b", args[1] if len(args) > 1 else ())
    return "zero_rhs", int(all(x == 0 for x in b))


def _empty(args, kwargs, result):
    return "empty", int(len(result) == 0)


def _overflow(args, kwargs, result):
    return "overflows", int(result is None)


def _true(args, kwargs, result):
    return "true", int(bool(result))


def _size(suffix):
    return lambda args, kwargs, result: (suffix, len(result))


# (metric prefix, module of stdpairs, attribute path, counter or None)
LAYERS = [
    ("diophantine.min_nonneg_solutions", "diophantine", "min_nonneg_solutions", _zero_rhs),
    ("diophantine.uncached", "diophantine", "_min_nonneg_uncached", _empty),
    ("diophantine.tier1", "diophantine", "_completion", _overflow),
    ("diophantine.tier2", "diophantine", "_box_solutions", _overflow),
    ("diophantine.tier3", "diophantine", "_hilbert_basis_geometric", None),
    ("diophantine.parallelepiped", "diophantine", "_parallelepiped_points", _size("points")),
    ("diophantine.hilbert_kernel", "diophantine", "hilbert_kernel", None),
    ("polyhedral.facet_data", "polyhedral", "facet_data", None),
    ("polyhedral.support_vectors_of_face", "polyhedral", "support_vectors_of_face", None),
    ("polyhedral.face_lattice", "polyhedral", "face_lattice", None),
    ("polyhedral.is_pointed", "polyhedral", "is_pointed", None),
    ("monoid.AffineMonoid", "monoid", "AffineMonoid.__init__", None),
    ("monoid.contains", "monoid", "AffineMonoid.contains", None),
    ("ideal.MonomialIdeal", "ideal", "MonomialIdeal.__init__", None),
    ("ideal.is_element", "ideal", "MonomialIdeal.is_element", None),
    ("ideal.intersect", "ideal", "MonomialIdeal.intersect", None),
    ("ideal.radical", "ideal", "MonomialIdeal.radical", None),
    ("pairs.is_proper", "pairs", "is_proper", _true),
    ("pairs.divides", "pairs", "divides", None),
    ("pairs.intersect_pairs", "pairs", "intersect_pairs", None),
    ("covers.poly_standard_pairs", "covers", "poly_standard_pairs", _size("pairs_out")),
    ("covers.pair_difference", "covers", "pair_difference", None),
    ("covers.minimal_holes", "covers", "minimal_holes", None),
    ("covers.czero_to_cone", "covers", "czero_to_cone", None),
    ("covers.cone_to_ctwo", "covers", "cone_to_ctwo", None),
    ("covers.cover_to_standard", "covers", "cover_to_standard", None),
    ("covers.standard_cover", "covers", "standard_cover", None),
    ("decomp.overlap_classes", "decomp", "overlap_classes", None),
    ("decomp.maximal_overlap_classes", "decomp", "maximal_overlap_classes", None),
    ("decomp.irreducible_component", "decomp", "irreducible_component", None),
    ("archive.load", "archive", "load", None),
    ("archive.save", "archive", "save", None),
]

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = [
    ("diophantine.min_nonneg_solutions.calls", "count"),
    ("diophantine.min_nonneg_solutions.misses", "count"),
    ("diophantine.min_nonneg_solutions.empty", "count"),
    ("diophantine.cache.hit_ratio", "ratio"),
    ("diophantine.tier1.calls", "count"),
    ("diophantine.tier1.overflows", "count"),
    ("diophantine.tier1.self_s", "s"),
    ("diophantine.tier2.calls", "count"),
    ("diophantine.tier2.overflows", "count"),
    ("diophantine.tier2.self_s", "s"),
    ("diophantine.tier3.calls", "count"),
    ("diophantine.tier3.self_s", "s"),
    ("diophantine.parallelepiped.calls", "count"),
    ("diophantine.parallelepiped.points", "count"),
    ("diophantine.parallelepiped.self_s", "s"),
    ("diophantine.hilbert_kernel.calls", "count"),
    ("diophantine.hilbert_kernel.self_s", "s"),
    ("diophantine.cache.matrices", "count"),
    ("diophantine.cache.solutions", "count"),
    ("polyhedral.facet_data.calls", "count"),
    ("polyhedral.facet_data.self_s", "s"),
    ("polyhedral.support_vectors_of_face.calls", "count"),
    ("polyhedral.support_vectors_of_face.self_s", "s"),
    ("polyhedral.face_lattice.calls", "count"),
    ("polyhedral.is_pointed.self_s", "s"),
    ("monoid.AffineMonoid.calls", "count"),
    ("monoid.AffineMonoid.self_s", "s"),
    ("monoid.contains.calls", "count"),
    ("monoid.contains.self_s", "s"),
    ("ideal.MonomialIdeal.calls", "count"),
    ("ideal.MonomialIdeal.self_s", "s"),
    ("ideal.is_element.calls", "count"),
    ("ideal.is_element.self_s", "s"),
    ("ideal.intersect.self_s", "s"),
    ("ideal.radical.self_s", "s"),
    ("pairs.is_proper.calls", "count"),
    ("pairs.is_proper.true", "count"),
    ("pairs.is_proper.self_s", "s"),
    ("pairs.divides.calls", "count"),
    ("pairs.divides.self_s", "s"),
    ("pairs.intersect_pairs.calls", "count"),
    ("pairs.intersect_pairs.self_s", "s"),
    ("covers.poly_standard_pairs.calls", "count"),
    ("covers.poly_standard_pairs.pairs_out", "count"),
    ("covers.poly_standard_pairs.self_s", "s"),
    ("covers.pair_difference.calls", "count"),
    ("covers.pair_difference.self_s", "s"),
    ("covers.minimal_holes.calls", "count"),
    ("covers.minimal_holes.self_s", "s"),
    ("covers.czero_to_cone.self_s", "s"),
    ("covers.cone_to_ctwo.self_s", "s"),
    ("covers.cover_to_standard.iterations", "count"),
    ("covers.standard_cover.self_s", "s"),
    ("decomp.overlap_classes.self_s", "s"),
    ("decomp.maximal_overlap_classes.self_s", "s"),
    ("decomp.irreducible_component.calls", "count"),
    ("decomp.irreducible_component.self_s", "s"),
    ("archive.load.calls", "count"),
    ("archive.load.self_s", "s"),
    ("archive.save.calls", "count"),
    ("archive.save.self_s", "s"),
]


class Tracer:
    """Installs the wrappers; ``uninstall`` restores every original."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.calls = {}
        self.self_s = {}
        self.extra = {}
        self.absent = []
        self._children = []
        self._restore = []

    def _wrap(self, prefix, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = tracer._children.pop()
                tracer.calls[prefix] = tracer.calls.get(prefix, 0) + 1
                tracer.self_s[prefix] = tracer.self_s.get(prefix, 0.0) + elapsed - inner
                if tracer._children:
                    tracer._children[-1] += elapsed
            if counter is not None:
                suffix, n = counter(args, kwargs, result)
                key = f"{prefix}.{suffix}"
                tracer.extra[key] = tracer.extra.get(key, 0) + n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "stdpairs" or name.startswith("stdpairs.")
        ]
        for prefix, modname, path, counter in self.layers:
            try:
                owner = importlib.import_module(f"stdpairs.{modname}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(prefix)
                continue
            wrapped = self._wrap(prefix, original, counter)
            if outer:
                # a method: patching the class reaches every caller
                self._patch(owner, attr, original, wrapped)
                continue
            # a function: patch every module of the package that bound it
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self, cache_matrices, cache_solutions):
        """Every per-layer metric of ``PER_LAYER``, as ``name -> value``."""
        values = {}
        for prefix in self.calls:
            values[prefix + ".calls"] = self.calls[prefix]
            values[prefix + ".self_s"] = self.self_s[prefix]
        values.update(self.extra)
        solve = "diophantine.min_nonneg_solutions"
        calls = values.get(solve + ".calls", 0)
        misses = values.get("diophantine.uncached.calls", 0)
        values[solve + ".misses"] = misses
        values[solve + ".empty"] = values.get("diophantine.uncached.empty", 0)
        lookups = calls - values.get(solve + ".zero_rhs", 0)
        values["diophantine.cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        values["diophantine.cache.matrices"] = cache_matrices
        values["diophantine.cache.solutions"] = cache_solutions
        # one czero_to_cone call per refinement round of cover_to_standard
        values["covers.cover_to_standard.iterations"] = values.get("covers.czero_to_cone.calls", 0)
        return {name: values.get(name, 0) for name, _ in PER_LAYER}
