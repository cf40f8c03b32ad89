"""The three benchmark workloads: their cases, set-up and checked runners.

Each case goes from a datum to a result that is compared exactly with an
independent route; a disagreement raises Mismatch.  Importing this module
imports wittram, so the benchmark times the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from wittram.conductor import section_degree_oracle, theorem_conductor
from wittram.localsym import modulus_vanishing_test
from wittram.tower import CoverDatum, analyze_tower, predicted_invariants
from wittram.witt import WittVector, build_table, ghost_batch, witt_batch_op


class Mismatch(Exception):
    """A result disagreed with its independent route."""


# ---------- case lists: (p, n, nu, f) over F_(p^f) ----------

# the 62-case acceptance grid of tests/test_acceptance.py, by height
GRID_SHALLOW = (
    [(2, 1, (v,)) for v in (1, 3, 5, 7, 9)]
    + [(3, 1, (v,)) for v in (1, 2, 4, 5, 7, 8)]
    + [(5, 1, (v,)) for v in (1, 2, 3, 4, 6, 7, 8, 9)]
    + [(2, 2, t) for t in [(1, 1), (1, 3), (3, 1), (3, 3), (5, 9), (7, 1), (9, 5), (5, 3)]]
    + [(3, 2, t) for t in [(1, 1), (1, 4), (2, 1), (4, 2), (5, 7), (7, 8), (8, 1), (2, 7)]]
    + [(5, 2, t) for t in [(1, 1), (1, 7), (2, 3), (3, 4), (4, 1), (6, 2), (9, 8), (4, 9)]]
)
GRID_DEEP = (
    [(2, 3, t) for t in [(1, 1, 1), (3, 1, 5), (7, 9, 9), (1, 3, 1), (1, 1, 5), (1, 1, 9), (5, 1, 3), (9, 7, 1)]]
    + [(3, 3, t) for t in [(1, 1, 1), (2, 4, 5), (8, 8, 7), (1, 5, 2), (4, 1, 8), (2, 2, 2)]]
    + [(5, 3, t) for t in [(1, 1, 1), (1, 2, 4), (1, 3, 2), (1, 4, 3), (2, 1, 1)]]
)
# p = 7 is supported but absent from the grid; (7,2,(3,1)) and (7,2,(6,9))
# only finish after analyze_tower doubles the budget
P7 = [(7, 1, (v,)) for v in (1, 2, 3, 4, 5, 6, 8, 9)] + [
    (7, 2, t) for t in [(1, 1), (2, 3), (3, 1), (1, 6), (6, 9)]
]


def round_robin(cases):
    """Take one case of each prime in turn.

    Cases of one prime cost about the same, so run in grid order the slow
    ones would share one stretch of the run, and a slow spell of the machine
    would move every percentile together.  Interleaving spreads them out."""
    groups = {}
    for case in cases:
        groups.setdefault(case[0], []).append(case)
    out = []
    for k in range(max(len(g) for g in groups.values())):
        out += [g[k] for g in groups.values() if k < len(g)]
    return out


TOWER_SHALLOW = round_robin(
    [(p, n, nu, 1) for p, n, nu in GRID_SHALLOW + P7]
    + [(2, 2, (3, 1), 2), (3, 2, (2, 1), 2), (3, 2, (1, 4), 2), (5, 2, (1, 1), 2)]
)
SYMBOLS = round_robin([(p, n, nu, f) for f in (1, 2) for p, n, nu in GRID_SHALLOW + GRID_DEEP + P7])
# (3,4) first, so that a one-case smoke slice stays cheap
WITT_TABLES = [(3, 4), (2, 6), (5, 4)]

BATCH = 1000
TRIALS = 50


# ---------- towers ----------


def tower_expectation(p, n, nu):
    """The report a tower must reproduce, from the closed form and the oracle."""
    closed = theorem_conductor(p, n, nu)
    oracle = section_degree_oracle(p, n, nu)
    if oracle["M"] != closed["M"]:
        raise Mismatch(f"lattice oracle M={oracle['M']} != closed form M={closed['M']}")
    m, e, mu = predicted_invariants(p, n, nu)
    return {
        "conductor": closed["conductor"],
        "different": mu[n] + p**n - 1,
        "m": tuple(m[1:]),
        "e": tuple(e[1:]),
        "mu": tuple(mu[1:]),
    }


def run_tower(case, _inputs):
    p, n, nu, f = case
    tower, _filtration, report = analyze_tower(CoverDatum.from_orders(p, n, f, list(nu)))
    want = tower_expectation(p, n, nu)
    got = {key: report[key] for key in want}
    if got != want:
        raise Mismatch(f"report {got} != expected {want}")
    if report["conductor_filtration"] != want["conductor"]:
        raise Mismatch(f"filtration conductor {report['conductor_filtration']}")
    if report["different_chain_rule"] != want["different"]:
        raise Mismatch(f"chain-rule different {report['different_chain_rule']}")
    return {"report": sorted(report.items()), "factor": tower.factor}


# ---------- local symbols ----------


def symbol_inputs(cases, seed):
    """One seed string per probe; each pass rebuilds its generator from it."""
    return {case: f"{seed}:{case}" for case in cases}


def run_symbol(case, inputs):
    p, n, nu, f = case
    datum = CoverDatum.from_orders(p, n, f, list(nu))
    bound = theorem_conductor(p, n, nu)["M"]
    rep = modulus_vanishing_test(
        WittVector(datum.entries), bound, trials=TRIALS, rng=random.Random(inputs[case])
    )
    if rep["trials"] != TRIALS:
        raise Mismatch(f"{rep['trials']} of {TRIALS} trials vanished")
    if not rep["witness_found"]:
        raise Mismatch(f"no nonzero symbol at the conductor bound {bound}")
    return {"attempts": rep["witness_attempts"], "symbol": repr(rep["witness"][1])}


# ---------- Witt tables ----------


def witt_inputs(cases, seed):
    out = {}
    for p, n in cases:
        gen = np.random.default_rng([seed, p, n])
        mod = p ** (n + 2)
        out[(p, n)] = (
            gen.integers(0, mod, size=(n, BATCH), dtype=np.int64),
            gen.integers(0, mod, size=(n, BATCH), dtype=np.int64),
        )
    return out


def run_witt(case, inputs):
    p, n = case
    A, C = inputs[case]
    mod = p ** (n + 2)
    table = build_table(p, n)
    S = witt_batch_op(table, "add", A, C, mod)
    P = witt_batch_op(table, "mul", A, C, mod)
    N = witt_batch_op(table, "neg", A, None, mod)
    for j in range(n):
        gA, gC = ghost_batch(A, p, j, mod), ghost_batch(C, p, j, mod)
        for op, out, want in (
            ("add", S, (gA + gC) % mod),
            ("mul", P, (gA * gC) % mod),
            ("neg", N, (-gA) % mod),
        ):
            if not np.array_equal(ghost_batch(out, p, j, mod), want):
                raise Mismatch(f"ghost component {j} of {op} disagrees")
    digest = hashlib.sha256()
    for arr in (S, P, N):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return {"digest": digest.hexdigest()}


# ---------- registry ----------


@dataclass(frozen=True)
class Workload:
    name: str
    cases: list
    run: object  # run(case, inputs) -> comparable summary; raises on mismatch
    make_inputs: object  # make_inputs(cases, seed) -> inputs
    nominal_pass_s: float  # one pass on a 2-CPU x86 machine, Python 3.11

    def force_tables(self):
        """Build every family of the longest table each prime in the cases needs."""
        need = {}
        for p, n, *_rest in self.cases:
            need[p] = max(need.get(p, 0), n)
        for p, n in sorted(need.items()):
            table = build_table(p, n)
            for i in range(n):
                table.S[i], table.c[i], table.I[i], table.P[i]


def _no_inputs(_cases, _seed):
    return None


WORKLOADS = {
    w.name: w
    for w in [
        Workload("tower-shallow", TOWER_SHALLOW, run_tower, _no_inputs, 9.2),
        Workload("symbols", SYMBOLS, run_symbol, symbol_inputs, 6.3),
        Workload("witt-tables", WITT_TABLES, run_witt, witt_inputs, 4.8),
    ]
}


def get(name, limit=None):
    """The named workload, cut to its first `limit` cases for a smoke run."""
    w = WORKLOADS[name]
    if limit is None:
        return w
    return Workload(w.name, w.cases[:limit], w.run, w.make_inputs, w.nominal_pass_s)
