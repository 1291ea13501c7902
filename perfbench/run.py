#!/usr/bin/env python3
"""Benchmark of the stdpairs library: four workloads, one process, no threads.

    python3 perfbench/run.py --workload ideals --seed 20250808 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same work runs
with every layer function wrapped, and the metrics are the per-layer ones
(also written to ``.perfbench_out/``).  Every workload does a fixed amount of
work set by its seed; ``--seconds`` is the nominal run length that work was
sized for and does not change it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

import inputs
import oracles
from calibrate import Clock
from layers import PER_LAYER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# A warm session is one pass; two cold-started passes are pooled.
SESSION_PASSES = 2
IDEALS_BOX = 3
PRINCIPAL_MARGIN = 2


def import_library():
    if not os.path.isfile(os.path.join(SRC, "stdpairs", "__init__.py")):
        sys.exit(f"perfbench: no library at {os.path.relpath(SRC)}/stdpairs; run from a repository checkout")
    sys.path.insert(0, SRC)
    import stdpairs

    return stdpairs


def clear_solver_cache(sp):
    cache = getattr(sp.diophantine, "_MATRIX_CACHE", None)
    if cache is not None:
        cache.clear()


def solver_cache_size(sp):
    cache = getattr(sp.diophantine, "_MATRIX_CACHE", None) or {}
    solutions = sum(len(getattr(d, "solutions", ())) for d in cache.values())
    return len(cache), solutions


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one workload run measured and found.

    A sample is ``(raw seconds, index of the kernel sample after it)``; see
    ``calibrate.Clock``.  ``ops`` holds one list of samples per operation
    (its repeats when cold, one sample per query on ``session``), ``setup``
    one per part of the set-up.
    """

    def __init__(self):
        self.clock = Clock()
        self.setup = {}
        self.ops = []
        self.labels = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = 0.0
        self.notes = {}

    def setup_part(self, part, make):
        """Run and time ``make`` as one sample of set-up part ``part``."""
        start = perf_counter()
        result = make()
        elapsed = perf_counter() - start
        self.setup.setdefault(part, []).append((elapsed, self.clock.lap(elapsed)))
        return result


def schedule(repeats):
    """Rounds of operation indices: operation i runs in ``repeats[i]`` rounds spread evenly."""
    rounds = [[] for _ in range(max(repeats))]
    for i, k in enumerate(repeats):
        for j in range(k):
            rounds[j * len(rounds) // k].append(i)
    return rounds


def run_cold(sp, outcome, make_inputs, ops, extract):
    """Time each ``(label, fn, repeats)`` cold, keeping the median of its times.

    Input generation, ``make_inputs``, is timed again before every operation,
    so that the set-up samples spread over the run as the operations do.
    Every operation runs in round 0, whose results are kept for the checks:
    returns ``label -> extract(result)``; a failed operation maps to None.
    """
    samples = [[] for _ in ops]
    kept = {}
    for rnd, members in enumerate(schedule([k for _, _, k in ops])):
        for i in members:
            label, fn, _ = ops[i]
            gc.collect()
            outcome.setup_part("inputs", make_inputs)
            clear_solver_cache(sp)
            gc.collect()
            outcome.attempted += 1
            start = perf_counter()
            try:
                result = fn()
            except Exception:  # one failed operation must not end the run
                outcome.failed += 1
                outcome.clock.lap(perf_counter() - start)
                traceback.print_exc(file=sys.stderr)
                if rnd == 0:
                    kept[label] = None
                continue
            elapsed = perf_counter() - start
            samples[i].append((elapsed, outcome.clock.lap(elapsed)))
            if rnd == 0:
                kept[label] = extract(result)
            del result
    outcome.clock.finish()
    outcome.peak_rss_mb = peak_rss_mb()
    for (label, _, _), op in zip(ops, samples):
        if op:
            outcome.ops.append(op)
            outcome.labels.append(label)
    return kept


def matrix(sp, cols):
    return sp.IntMatrix.from_cols(cols, rows=len(cols[0]))


# ---------------------------------------------------------------------------
# workloads

def workload_ideals(sp, seed, outcome):
    make_inputs = lambda: inputs.ideals_inputs(seed)
    specs = make_inputs()

    def op(cols, gens):
        def fn():
            Q = sp.AffineMonoid(matrix(sp, cols))
            I = sp.MonomialIdeal(Q, matrix(sp, gens))
            return sp.standard_cover(I), sp.irreducible_decomposition(I), I.radical()
        return fn

    def extract(result):
        cover, components, rad = result
        return (
            [(p.base, p.face) for p in cover.pairs()],
            [W.gens.columns() for W in components],
            rad.gens.columns(),
        )

    ops = [(label, op(cols, gens), k) for label, cols, gens, k in specs]
    kept = run_cold(sp, outcome, make_inputs, ops, extract)
    for label, cols, gens, _ in specs:
        if kept.get(label) is None:
            continue
        pairs, components, rad = kept[label]
        box = inputs.monoid_box(cols, IDEALS_BOX)
        for problem in (
            oracles.check_cover(cols, gens, pairs, box)
            + oracles.check_decomposition(cols, gens, components, box)
            + oracles.check_radical(cols, gens, rad, box)
        ):
            outcome.problems.append(f"{label}: {problem}")


def principal_box(cols, b):
    caps = tuple(x + PRINCIPAL_MARGIN * max(c[i] for c in cols) for i, x in enumerate(b))
    return oracles.reachable(cols, caps)


def workload_principal(sp, seed, outcome):
    make_inputs = lambda: inputs.principal_inputs(seed)
    specs = make_inputs()

    def op(cols, gens):
        def fn():
            Q = sp.AffineMonoid(matrix(sp, cols))
            return sp.standard_cover(sp.MonomialIdeal(Q, matrix(sp, gens)))
        return fn

    ops = [(label, op(cols, gens), k) for label, cols, gens, k in specs]
    kept = run_cold(sp, outcome, make_inputs, ops, lambda cover: [(p.base, p.face) for p in cover.pairs()])
    for label, cols, gens, _ in specs:
        if kept.get(label) is None:
            continue
        box = principal_box(cols, gens[0])
        for problem in oracles.check_cover(cols, gens, kept[label], box):
            outcome.problems.append(f"{label}: {problem}")


def workload_monoids(sp, seed, outcome):
    make_inputs = lambda: inputs.monoids_inputs(seed)
    specs = make_inputs()
    bottom = sp.BOTTOM

    def extract(Q):
        faces = [f for f in Q.faces if f != bottom]
        supports = Q.supports
        return faces, {f: list(supports[f].data) for f in faces}, Q.mingens.columns()

    ops = [(label, (lambda cols=cols: sp.AffineMonoid(matrix(sp, cols))), k) for label, cols, k in specs]
    kept = run_cold(sp, outcome, make_inputs, ops, extract)
    for label, cols, _ in specs:
        if kept.get(label) is None:
            continue
        for problem in oracles.check_monoid(cols, *kept[label]):
            outcome.problems.append(f"{label}: {problem}")


class SessionIdeal:
    """One ideal of the session, with its saved archive."""

    def __init__(self, sp, label, cols, gens, path):
        self.label = label
        self.cols = cols
        self.gens = gens
        self.path = path
        self.Q = sp.AffineMonoid(matrix(sp, cols))
        self.I = sp.MonomialIdeal(self.Q, matrix(sp, gens))
        self.cover = sp.standard_cover(self.I)
        self.pairs = self.cover.pairs()
        self.decomposition = [W.hash_string for W in sp.irreducible_decomposition(self.I)]
        sp.save(self.I, path)


def build_session(sp, seed, outcome):
    """Compute and save the session's ideals, then draw the query stream.

    Each ideal, and the stream, is timed as one part of the set-up.
    """
    ideals = [
        outcome.setup_part(label, lambda: SessionIdeal(sp, label, cols, gens, os.path.join(OUT, f"session-{k}.txt")))
        for k, (label, cols, gens) in enumerate(inputs.session_ideals())
    ]
    queries = outcome.setup_part("queries", lambda: draw_queries(sp, seed, ideals))
    return ideals, queries


def draw_queries(sp, seed, ideals):
    kinds, rng = inputs.session_kinds()
    queries = []
    loads = 0
    for kind in kinds:
        if kind == "load":
            queries.append((kind, ideals[loads % len(ideals)], None))
            loads += 1
            continue
        s = rng.choice(ideals)
        if kind == "is_element":
            args = inputs.near(rng, rng.choice(s.gens), s.cols)
        elif kind == "contains":
            args = inputs.near(rng, rng.choice(s.gens + s.cols), s.cols)
        elif kind == "proper_pair":
            args = proper_pair_candidate(rng, s)
        else:
            args = (shifted_pair(sp, rng, s), shifted_pair(sp, rng, s))
        queries.append((kind, s, args))
    random.Random(seed).shuffle(queries)
    return queries


def shifted_pair(sp, rng, s):
    """A cover pair with up to three generators added to its base (unchecked)."""
    p = rng.choice(s.pairs)
    base = inputs.near(rng, p.base, s.cols, jitter=False)
    return sp.ProperPair(base, p.face, s.I, skip_check=True)


def proper_pair_candidate(rng, s):
    """A (base, face) near the cover, proper or not; the face is always a face."""
    p = rng.choice(s.pairs)
    roll = rng.randrange(4)
    if roll == 0:
        return p.base, p.face
    if roll == 1 and p.face:
        return oracles.add(p.base, s.cols[rng.choice(p.face)]), p.face
    if roll == 2:
        return rng.choice(s.gens), p.face
    return oracles.add(p.base, rng.choice(s.cols)), p.face


def run_query(sp, kind, s, args):
    if kind == "load":
        return sp.load(s.path)
    if kind == "is_element":
        return s.I.is_element(args)
    if kind == "contains":
        return s.Q.contains(args)
    if kind == "proper_pair":
        try:
            sp.ProperPair(args[0], args[1], s.I)
        except ValueError:
            return False
        return True
    if kind == "divides":
        return sp.divides(args[0], args[1]).data
    p, q = args
    return tuple(sp.intersect_pairs(s.Q, p.base, p.face, q.base, q.face))


def load_matches(s, loaded):
    return (
        loaded == s.I
        and loaded._cache.get("standard_cover") == s.cover
        and [W.hash_string for W in loaded._cache.get("irreducible_decomposition", [])] == s.decomposition
    )


def query_key(kind, s, args):
    if kind in ("divides", "intersect_pairs"):
        return (kind, s.label, args[0].hash_string, args[1].hash_string)
    return (kind, s.label, args)


def run_stream(sp, outcome, queries):
    """Time every query once, each an operation of ``outcome``; return the answers."""
    answers = []
    for kind, s, args in queries:
        outcome.attempted += 1
        start = perf_counter()
        try:
            result = run_query(sp, kind, s, args)
        except Exception:  # one failed operation must not end the run
            outcome.failed += 1
            outcome.clock.lap(perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = perf_counter() - start
        outcome.ops.append([(elapsed, outcome.clock.lap(elapsed))])
        if kind == "load":
            result = load_matches(s, result)
        answers.append((kind, s, args, result))
    return answers


def workload_session(sp, seed, outcome):
    """SESSION_PASSES whole sessions, each set up cold; their query times are pooled."""
    os.makedirs(OUT, exist_ok=True)
    passes = []
    for _ in range(SESSION_PASSES):
        clear_solver_cache(sp)
        gc.collect()
        ideals, queries = build_session(sp, seed, outcome)
        gc.collect()
        passes.append((ideals, run_stream(sp, outcome, queries)))
    outcome.clock.finish()
    outcome.peak_rss_mb = peak_rss_mb()

    seen = set()
    repeated = 0
    for kind, s, args in queries:
        key = query_key(kind, s, args)
        repeated += key in seen
        seen.add(key)
    outcome.notes["repeated_query_share"] = repeated / len(queries)
    for ideals, answers in passes:
        outcome.problems.extend(check_session(ideals, answers))


def check_session(ideals, answers):
    problems = []
    regions = {}
    for s in ideals:
        points = [p.base for p in s.pairs] + list(s.gens)
        points += [args for kind, t, args, _ in answers if t is s and kind in ("is_element", "contains")]
        points += [args[0] for kind, t, args, _ in answers if t is s and kind == "proper_pair"]
        caps = oracles.caps_of(points)
        margin = 3 * max(max(c) for c in s.cols)
        regions[s.label] = oracles.Region(s.cols, tuple(c + margin for c in caps))
    for kind, s, args, result in answers:
        region = regions[s.label]
        if kind == "load":
            if not result:
                problems.append(f"{s.label}: loaded archive differs from the saved ideal")
        elif kind == "is_element":
            expected = region.in_ideal(s.gens, args)
            if (result is not None) != expected:
                problems.append(f"{s.label}: is_element{args} answered {result}, expected {expected}")
            elif result is not None:
                x, g = result
                if tuple(g) not in s.gens:
                    problems.append(f"{s.label}: is_element{args} names {g}, not a generator")
                problems.extend(oracles.check_rows(g, s.cols, args, [], [tuple(x)]))
        elif kind == "contains":
            if result != region.in_monoid(args):
                problems.append(f"{s.label}: contains{args} answered {result}")
        elif kind == "proper_pair":
            base, face = args
            translates = oracles.reachable([s.cols[j] for j in face], region.caps, start=base)
            meets = any(region.in_ideal(s.gens, v) for v in translates)
            if result and meets:
                problems.append(f"{s.label}: pair {args} accepted but meets the ideal")
            if not result and not meets:
                problems.append(f"{s.label}: pair {args} rejected, no meeting point below {region.caps}")
        elif kind == "divides":
            p, q = args
            problems.extend(
                f"{s.label}: divides: {e}"
                for e in oracles.check_rows(p.base, s.cols, q.base, [s.cols[j] for j in q.face], result)
            )
        else:
            p, q = args
            problems.extend(
                f"{s.label}: intersect_pairs: {e}"
                for e in oracles.check_rows(
                    p.base, [s.cols[j] for j in p.face], q.base, [s.cols[j] for j in q.face], result
                )
            )
    return problems


WORKLOADS = {
    "ideals": workload_ideals,
    "principal": workload_principal,
    "monoids": workload_monoids,
    "session": workload_session,
}


# ---------------------------------------------------------------------------
# reporting

def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def scaled(outcome, samples):
    """Sample times in reference seconds (``calibrate.py``)."""
    return [raw * outcome.clock.scale_at(k) for raw, k in samples]


def op_times(outcome):
    """One time per operation: the median of its scaled samples."""
    return [statistics.median(scaled(outcome, op)) for op in outcome.ops]


def end_to_end(outcome):
    times = op_times(outcome)
    setup = sum(statistics.median(scaled(outcome, part)) for part in outcome.setup.values())
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000.0 if times else 0.0, "ms"),
        "op_p99_ms": (percentile(times, 99) * 1000.0 if times else 0.0, "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    sp = import_library()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcome = Outcome()
    start = perf_counter()
    try:
        WORKLOADS[args.workload](sp, args.seed, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = perf_counter() - start
    for problem in outcome.problems[:20]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    e2e = end_to_end(outcome)
    for label, op, t in zip(outcome.labels, outcome.ops, op_times(outcome)):
        raw = statistics.median(r for r, _ in op)
        print(f"perfbench: {label}: median of {len(op)}: {t * 1000:.1f} ms ({raw * 1000:.1f} ms raw)", file=sys.stderr)
    outcome.notes["scale"] = outcome.clock.scale()
    outcome.notes["kernel_samples"] = len(outcome.clock.kernel_s)
    outcome.notes["wall_s"] = wall
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    else:
        values = tracer.metrics(*solver_cache_size(sp))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "absent": tracer.absent,
                    "per_layer": values,
                    "end_to_end": {k: v for k, (v, _) in e2e.items()},
                    "timed_raw_s": sum(r for op in outcome.ops for r, _ in op),
                    "wall_s": wall,
                    "notes": outcome.notes,
                },
                fh,
                indent=1,
                sort_keys=True,
            )
    for key, value in outcome.notes.items():
        print(f"perfbench: {args.workload}: {key} = {value:.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
