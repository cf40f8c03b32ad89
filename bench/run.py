"""Run one wittram benchmark workload and print its metrics.

    python3 bench/run.py --workload tower-shallow --seed 1 --seconds 30 --trace 0

The benchmark drives wittram from outside, as a user's script would: it
imports the package from `src/` of the checkout it sits in and calls the
public functions in a single-threaded closed loop (one client, the next case
starts when the previous one has returned).  Every case is checked against
an independent route; see workloads.py.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics taken from the
spans of the traced pass (see tracer.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every case passed its checks and nonzero otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BUDGET_ENV = "WITTRAM_BUDGET_FACTOR"
SETUP_SAMPLES = 3  # set-ups per run, each in a fresh interpreter but the first
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases above it

# known here, before workloads.py (and with it wittram) is imported and timed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_s": "s",
    "case_max_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("tower-shallow", "symbols", "witt-tables")

# per-layer metric -> the span it is read from
SPAN_TIMES = {
    "series.mul_small_s": "series.mul_small",
    "series.mul_large_s": "series.mul_large",
    "series.compose_s": "series.compose",
    "series.agrees_with_s": "series.agrees_with",
    "series.inv_s": "series.inv",
    "series.nth_root_s": "series.nth_root",
    "tower.build_s": "tower.build",
    "tower.invariants_s": "tower.invariants",
    "tower.filtration_s": "tower.filtration",
    "tower.conjugate_s": "tower.conjugate",
    "intpoly.p_eval_s": "intpoly.p_eval",
    "intpoly.eval_batch_s": "intpoly.eval_batch",
    "witt.table_build_s": "witt.table_build",
    "witt.batch_op_s": "witt.batch_op",
    "witt.ghost_batch_s": "witt.ghost_batch",
    "localsym.residue_vector_s": "localsym.residue_vector",
    "localsym.ghost_series_s": "localsym.ghost_series",
    "conductor.oracle_s": "conductor.oracle",
}
SPAN_CALLS = {
    "series.mul_small_calls": "series.mul_small",
    "series.mul_large_calls": "series.mul_large",
    "series.compose_calls": "series.compose",
    "tower.extend_stage_calls": "tower.extend_stage",
    "tower.conjugate_calls": "tower.conjugate",
    "localsym.residue_vector_calls": "localsym.residue_vector",
}
SELF_TIMES = ("series", "tower", "intpoly", "witt", "localsym", "conductor")


def _use_checkout():
    """Put this checkout's sources first on the path, or fail."""
    if not (SRC / "wittram" / "__init__.py").is_file():
        raise SystemExit(f"bench: no wittram sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def timed_setup(name, limit=None):
    """Import wittram and build the workload's Witt tables; time both.

    Returns (workload, seconds).  Only the first call in a
    process times a real import; set-up samples after the first therefore
    run in fresh interpreters (see setup_samples)."""
    _use_checkout()
    t0 = perf_counter()
    import workloads

    w = workloads.get(name, limit)
    w.force_tables()
    seconds = perf_counter() - t0
    import wittram

    if Path(wittram.__file__).resolve().parent != SRC / "wittram":
        raise SystemExit(f"bench: imported wittram from {wittram.__file__}, not {SRC}")
    return w, seconds


def setup_samples(name, limit, count):
    """Set-up seconds measured in `count` fresh interpreters, one after another."""
    code = f"import run; print(run.timed_setup({name!r}, {limit!r})[1])"
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=BENCH,
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_pass(w, inputs, tracer=None):
    """One pass over the cases; returns (seconds, [(seconds, summary, error)])."""
    results = []
    start = perf_counter()
    for case in w.cases:
        with tracer.region("bench.case") if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                summary, error = w.run(case, inputs), None
            except Exception as exc:  # a failing case is counted, never retried
                summary, error = None, f"{type(exc).__name__}: {exc}"
            results.append((perf_counter() - t0, summary, error))
    return perf_counter() - start, results


def score(w, passes):
    """Failures per case across passes; a summary that changes between passes
    (or between the untraced and the traced pass) counts as a failure."""
    failures = []
    for k, case in enumerate(w.cases):
        first = passes[0][1][k][1]
        for _wall, results in passes:
            _t, summary, error = results[k]
            if error is None and summary != first:
                error = f"result differs between passes: {summary} != {first}"
            if error is not None:
                failures.append((case, error))
    return failures


def latency_figures(passes):
    """Per-case latency (median over passes), then figures over the cases.

    One pass is timed as the sum of the per-case medians: a slow spell of
    the machine that hits one pass moves each case's median little, where it
    would move that pass's wall time as a whole."""
    n = len(passes[0][1])
    per_case = [statistics.median(p[1][k][0] for p in passes) for k in range(n)]
    ordered = sorted(per_case)
    tail_rank = n - 1 - TAIL_BEYOND
    tail = None
    if tail_rank > (n - 1) / 2:  # a tail exists only above the median
        tail = (ordered[tail_rank], 100.0 * (tail_rank + 1) / n)
    return per_case, sum(per_case), statistics.median(per_case), tail, ordered[-1]


def pins(w, passes):
    """What the program saw: budget factors, code and platform versions."""
    import numpy
    from wittram import tower

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    factors = {
        str(case): summary["factor"]
        for case, (_t, summary, _e) in zip(w.cases, passes[0][1])
        if summary and "factor" in summary
    }
    return {
        "default_factor": tower.DEFAULT_BUDGET_FACTOR,
        "tower_factors": factors,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def layer_figures(tr, overhead):
    """Per-layer metrics from the spans and counts of a traced run."""
    out = {}
    for metric, span in SPAN_TIMES.items():
        out[metric] = (tr.outer_time(span), "s")
    for metric, span in SPAN_CALLS.items():
        out[metric] = (tr.calls(span), "count")
    out["series.objects"] = (tr.counts["series.objects"], "count")
    out["coeff.elements"] = (tr.counts["coeff.elements"], "count")
    out["intpoly.terms_evaluated"] = (
        tr.counts["intpoly.p_eval"] + tr.counts["intpoly.eval_batch"],
        "count",
    )

    # budget restarts: analyze_tower calls build_tower once per attempt, and
    # every attempt but the last ended in InsufficientPrecision
    builds = defaultdict(list)
    analyses = []
    for i, name in enumerate(tr.names):
        if name == "tower.build":
            builds[tr.parents[i]].append(i)
        elif name == "tower.analyze":
            analyses.append(i)
    attempts = [builds[i] for i in analyses]
    out["tower.restarts"] = (sum(len(a) - 1 for a in attempts), "count")
    out["tower.wasted_s"] = (sum((tr.starts[a[-1]] - tr.starts[a[0]] for a in attempts if a), 0.0), "s")
    first = sum(1 for a in attempts if len(a) == 1)
    # with no tower cases, no case needed a restart
    out["tower.first_try_frac"] = (first / len(attempts) if attempts else 1.0, "ratio")

    self_sum = defaultdict(float)
    for name, t in zip(tr.names, tr.self_times()):
        self_sum[name.split(".")[0]] += t
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = (self_sum[layer], "s")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def fmt(value, unit):
    return f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit", type=int, help="smoke run: only the first LIMIT cases")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.limit is not None and args.limit < 1):
        ap.error("--seed must be >= 0, --seconds > 0 and --limit >= 1")

    # the budget factor is pinned to the library default for every run
    os.environ.pop(BUDGET_ENV, None)
    tracer = None
    if args.trace:
        import tracer as tracing

        # wittram must be loaded before its functions can be wrapped, and the
        # wrappers must be in place before the tables are built, so that
        # witt.table_build_s sees the build; this set-up is not timed
        _use_checkout()
        import workloads

        tracer = tracing.Tracer()
        traced_modules = tracing.wittram_modules() + [workloads]
        tracer.install(traced_modules)
        with tracer.region("bench.setup"):
            w = timed_setup(args.workload, args.limit)[0]
        tracer.uninstall()
    else:
        w, setup0 = timed_setup(args.workload, args.limit)
    inputs = w.make_inputs(w.cases, args.seed)

    if args.trace:
        passes = [run_pass(w, inputs)]
        tracer.install(traced_modules)
        try:
            passes.append(run_pass(w, inputs, tracer))
        finally:
            tracer.uninstall()
        overhead = passes[1][0] / passes[0][0]
        figures = layer_figures(tracer, overhead)
    else:
        setups = [setup0] + setup_samples(args.workload, args.limit, SETUP_SAMPLES - 1)
        count = math.ceil(args.seconds / w.nominal_pass_s)
        passes = [run_pass(w, inputs) for _ in range(count)]
        per_case, wall, p50, tail, worst = latency_figures(passes)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "case_p50_s": p50,
            "case_max_s": worst,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        figures = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    failures = score(w, passes)
    attempted = len(w.cases) * len(passes)
    pinned = pins(w, passes)

    print(
        f"wittram bench: workload={w.name} seed={args.seed} trace={args.trace} "
        f"cases={len(w.cases)} passes={len(passes)}{' (the second traced)' if args.trace else ''}"
    )
    for name, (value, unit) in figures.items():
        print(f"  {name:<30} {fmt(value, unit)}")
    if not args.trace:
        if tail is None:
            print(f"  {'case_tail_s':<30} n/a s (needs at least {2 * TAIL_BEYOND + 2} cases)")
        else:
            print(f"  {'case_tail_s':<30} {tail[0]:.6g} s (p{tail[1]:.0f} of {len(per_case)} cases)")
        print(f"  {'failed_frac':<30} {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    restarted = {c: f for c, f in pinned["tower_factors"].items() if f != pinned["default_factor"]}
    print(
        f"  pinned: default_factor={pinned['default_factor']} git={pinned['git_sha'][:12]} "
        f"nproc={pinned['nproc']} python={pinned['python']} numpy={pinned['numpy']}"
    )
    if pinned["tower_factors"]:
        print(f"  tower cases finished above the default factor: {restarted}")
    for case, error in failures:
        print(f"  FAILED {case}: {error}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json.gz")
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limit": args.limit,
        "metrics": metrics,
        "pass_walls_s": [p[0] for p in passes],
        "case_latency_s": {str(c): [p[1][k][0] for p in passes] for k, c in enumerate(w.cases)},
        "failures": [[str(c), e] for c, e in failures],
        "pinned": pinned,
    }
    if not args.trace:
        record["setup_samples_s"] = setups
        record["case_tail_s"] = tail[0] if tail else None
        record["failed_frac"] = len(failures) / attempted
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
