"""Check one traced benchmark pass: print its result line, its gated layer
counts and its report-only figures, and exit 1 if any gate fails.

Every workload's pass must be correct with no failed operation and no
absent layer; each workload's own gates are counts that must read 0.
Run after a traced pass of ``perfbench/run.py``:

    result=$(python3 perfbench/run.py --workload principal --seed 7 --seconds 30 --trace 1 | tail -n 1)
    python3 scripts/trace_gates.py principal "$result" .perfbench_out/trace-principal-7.json
"""

from __future__ import annotations

import json
import sys

_SOLVER = [
    ("tier-1 calls", "diophantine.tier1.calls"),
    ("hilbert_kernel calls", "diophantine.hilbert_kernel.calls"),
    ("triangulations (tier 3)", "diophantine.tier3.calls"),
]
_REFINEMENT = [("cover refinement rounds", "covers.cover_to_standard.iterations")]
_ROUTE = (
    "solver route",
    [
        ("min_nonneg_solutions calls", "diophantine.min_nonneg_solutions.calls"),
        ("misses", "diophantine.min_nonneg_solutions.misses"),
        ("contains calls", "monoid.contains.calls"),
    ],
)
_CONSTRUCTION = [("AffineMonoid calls", "monoid.AffineMonoid.calls"), ("self_s", "monoid.AffineMonoid.self_s")]

# workload -> (counts that must read 0, report-only lines as (title, [(label, metric)]))
WORKLOADS = {
    "principal": (
        _SOLVER,
        [
            (
                "poly_standard_pairs",
                [
                    ("calls", "covers.poly_standard_pairs.calls"),
                    ("pairs_out", "covers.poly_standard_pairs.pairs_out"),
                    ("self_s", "covers.poly_standard_pairs.self_s"),
                ],
            )
        ],
    ),
    "ideals": (_SOLVER + _REFINEMENT, [_ROUTE, ("box walks", [("tier-2 calls", "diophantine.tier2.calls")])]),
    "session": (
        _SOLVER + _REFINEMENT,
        [
            _ROUTE,
            (
                "archive",
                [
                    ("load calls", "archive.load.calls"),
                    ("self_s", "archive.load.self_s"),
                    ("save calls", "archive.save.calls"),
                    ("self_s", "archive.save.self_s"),
                ],
            ),
            ("construction", [("facet enumerations", "polyhedral.facet_data.calls")] + _CONSTRUCTION),
            ("ideal constructions", [("MonomialIdeal calls", "ideal.MonomialIdeal.calls"), ("self_s", "ideal.MonomialIdeal.self_s")]),
        ],
    ),
    "monoids": ([], [("construction", _CONSTRUCTION)]),
}


def main(workload: str, result_line: str, trace_path: str) -> int:
    gates, reports = WORKLOADS[workload]
    print(f"{workload} traced: {result_line}")
    result = json.loads(result_line)
    with open(trace_path) as fh:
        trace = json.load(fh)
    layers = trace["per_layer"]
    ok = result["correct"] is True and result["failed"] == 0
    if not ok:
        print("not correct, or a failed operation")
    print("absent:", trace["absent"])
    ok &= trace["absent"] == []
    for label, metric in gates:
        print(f"{label}:", layers[metric])
        ok &= layers[metric] == 0
    for title, figures in reports:
        print(f"{title} (report only):", " ".join(f"{label} {layers[metric]}" for label, metric in figures))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
