"""Command-line front end: datum parsing, per-module reports, batch grids.

Input documents are JSON objects with keys p, n, optional field (extension
degree over the prime field, default 1), and either `nu` (pole-order
shorthand, expanding to u_i = s^(-nu_i)) or `u` (explicit series literals as
lists of [exponent, coefficient] pairs; coefficients are integers, or
coordinate lists over extension fields).

Every subcommand cross-checks its own output where two routes exist and
exits nonzero on any mismatch, so the tool doubles as a verifier.  Reports
come in a human layout by default and as stable JSON under --json."""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import intpoly as ip
from .coeff import finite_field, is_prime, lift_ring
from .conductor import (
    claim_pole_check,
    section_degree_oracle,
    sort_bound_check,
    theorem_conductor,
)
from .errors import WittramError
from .localsym import LocalSymbolInput, modulus_vanishing_test, residue_vector
from .series import TruncatedLaurentSeries
from .tower import CoverDatum, analyze_tower, predicted_invariants
from .wbar import (
    divisor_ledger,
    psi_on_sections,
    psi_pullback,
    pushforward_recursion_check,
    section_dim,
    ChowClass,
)
from .witt import WittVector, build_table, ghost_eval, witt_add, witt_mul, witt_neg


def _error_code(exc):
    """Kebab-case exception name; an acronym stays one word (json-decode-error)."""
    boundary = r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])"
    return re.sub(boundary, "-", type(exc).__name__).lower()


def _parse_int_list(text):
    """Comma-separated integers; int() refuses an empty item ("3,,1")."""
    return [int(x) for x in text.split(",")]


def _parse_series(ring, literal):
    """A series from a JSON literal [[exponent, coefficient], ...]; a
    coefficient is an integer or a list of coordinates."""
    try:
        terms = [(int(e), c) for e, c in literal]
        if not all(isinstance(c, (int, list)) for _e, c in terms):
            raise TypeError
        return TruncatedLaurentSeries.from_terms(ring, terms)
    except TypeError as exc:
        raise ValueError(
            f"series literal {literal!r} is not a list of [exponent, coefficient] pairs"
        ) from exc


def _datum_int(value, key):
    """value when it is a JSON integer; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"datum `{key}` must be an integer, got {value!r}")
    return value


def parse_datum(source):
    """Read a JSON datum document (path or parsed object) into a CoverDatum."""
    if isinstance(source, str):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("datum document must be a JSON object")
    try:
        p, n = _datum_int(doc["p"], "p"), _datum_int(doc["n"], "n")
    except KeyError as missing:
        raise ValueError(f"datum document lacks required key {missing}")
    f = _datum_int(doc.get("field", 1), "field")
    if "nu" in doc:
        if not isinstance(doc["nu"], list):
            raise ValueError(f"datum `nu` must be a list of integers, got {doc['nu']!r}")
        return CoverDatum.from_orders(p, n, f, [_datum_int(v, "nu") for v in doc["nu"]])
    if "u" in doc:
        ring = finite_field(p, f)
        if not isinstance(doc["u"], list):
            raise ValueError("`u` must be a list of series literals")
        return CoverDatum(p, n, ring, [_parse_series(ring, lit) for lit in doc["u"]])
    raise ValueError("datum document needs either `nu` or `u`")


def _datum_from_args(args):
    if getattr(args, "datum", None):
        return parse_datum(args.datum)
    if args.p is None or args.n is None or args.nu is None:
        raise ValueError("provide --p, --n and --nu, or a --datum document")
    nu = _parse_int_list(args.nu)
    return CoverDatum.from_orders(args.p, args.n, getattr(args, "field", 1), nu)


# ---------- report emission ----------


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    return repr(x)


def _emit(report, fmt, out=None):
    out = sys.stdout if out is None else out
    if fmt == "json":
        print(json.dumps(_jsonable(report), sort_keys=True), file=out)
        return
    for key, val in report.items():
        if key == "cases" and val and isinstance(val[0], dict):
            _emit_table(val, out)
        elif isinstance(val, dict):
            print(f"{key}:", file=out)
            for k2, v2 in val.items():
                print(f"  {k2}: {_human(v2)}", file=out)
        else:
            print(f"{key}: {_human(val)}", file=out)


def _emit_table(rows, out):
    cols = list(rows[0])
    cells = [[_human(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)), file=out)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def _human(v):
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_human(x) for x in v) + "]"
    return str(v)


# ---------- polynomial pretty-printing for `witt table` ----------


def _var_name(v):
    return f"{'XY'[v % 2]}{v // 2}"


def format_packed_poly(poly, nvars, var_name=_var_name):
    """Deterministic human form of a packed integer polynomial."""
    if not poly:
        return "0"
    rows = []
    for key, coeff in poly.items():
        exps = ip.unpack(key, nvars)
        rows.append((tuple(exps), coeff))
    rows.sort(reverse=True)
    parts = []
    for exps, coeff in rows:
        factors = [
            f"{var_name(v)}^{e}" if e > 1 else var_name(v)
            for v, e in enumerate(exps)
            if e
        ]
        body = "*".join(factors) if factors else "1"
        if coeff == 1 and factors:
            parts.append(body)
        elif coeff == -1 and factors:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}" if factors else str(coeff))
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


# ---------- subcommands ----------


def _cmd_conductor(args):
    if getattr(args, "datum", None) is None:
        if args.p is None or args.n is None or args.nu is None:
            raise ValueError("provide --p, --n and --nu, or a --datum document")
        p, n, nu = args.p, args.n, tuple(_parse_int_list(args.nu))
    else:
        d = parse_datum(args.datum)
        p, n, nu = d.p, d.n, d.nu
    closed = theorem_conductor(p, n, nu)
    oracle = section_degree_oracle(p, n, nu)
    m, e, mu = predicted_invariants(p, n, nu)
    report = {
        "p": p,
        "n": n,
        "nu": list(nu),
        "conductor_closed_form": closed["conductor"],
        "modulus_bound": closed["M"],
        "conductor_lattice_oracle": oracle["M"] + 1,
        "match": closed["M"] == oracle["M"],
        "m": m[1:],
        "e_breaks": e[1:],
        "mu": mu[1:],
        "different": mu[n] + p**n - 1,
    }
    return report, report["match"]


def _cmd_tower(args):
    datum = _datum_from_args(args)
    tower, filtration, report = analyze_tower(datum)
    report["breaks"] = list(filtration.breaks)
    report["segments"] = [
        {"from": lo, "to": hi if hi is not None else "inf", "group_order": order}
        for (lo, hi, order) in filtration.segments()
    ]
    report["conductor_brute_force"] = report["conductor_filtration"]
    closed = theorem_conductor(datum.p, datum.n, datum.nu)
    report["conductor_closed_form"] = closed["conductor"]
    ok = report["conductor_brute_force"] == closed["conductor"]
    report["match"] = ok
    if args.deep:
        report["sort_bound"] = sort_bound_check(tower)
        report["claim_pole"] = claim_pole_check(tower)
    report["nu"] = list(report["nu"])
    return report, ok


def _cmd_local_symbol(args):
    datum = _datum_from_args(args)
    u = WittVector(datum.entries)
    field = datum.ring
    bound = theorem_conductor(datum.p, datum.n, datum.nu)["M"]
    report = {
        "p": datum.p,
        "n": datum.n,
        "nu": list(datum.nu),
        "modulus_bound": bound,
    }
    if args.alpha:
        alpha = _parse_series(field, json.loads(args.alpha))
        symbol = residue_vector(LocalSymbolInput(u, alpha))
        report["alpha"] = args.alpha
        report["symbol"] = [list(map(int, c.coords)) for c in symbol]
        report["symbol_zero"] = symbol.is_zero()
    if args.probe:
        rng = random.Random(args.seed)
        probe = modulus_vanishing_test(u, bound, trials=args.trials, rng=rng)
        report["probe_trials"] = probe["trials"]
        report["probe_certificate"] = probe["certificate"]
        report["witness_found"] = probe["witness_found"]
        if probe["witness_found"]:
            alpha, sym = probe["witness"]
            report["witness_alpha"] = repr(alpha)
            report["witness_symbol"] = [list(map(int, c.coords)) for c in sym]
    return report, True


def _check_prime_height(p, n):
    """Usage check shared by `witt` and `wbar`: p prime and n >= 1."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")


def _cmd_witt(args):
    p, n = args.p, args.n
    _check_prime_height(p, n)
    table = build_table(p, n)
    if args.action == "table":
        report = {"p": p, "n": n}
        for family in "ScIP" if args.products else "ScI":
            for j in range(n):
                report[f"{family}_{j}"] = format_packed_poly(getattr(table, family)[j], 2 * n)
        return report, True

    # evaluate: vectors over Z/p^m, checked through the ghost map
    m = args.mod_digits
    ring = lift_ring(p, m)
    report = {"p": p, "n": n, "mod": p**m, "op": args.action}
    names = ["x"] if args.action == "neg" else ["x", "y"]
    vecs = []
    for name in names:
        text = getattr(args, name)
        if text is None:
            raise ValueError(f"--{name} is required for {args.action}")
        report[name] = _parse_int_list(text)
        if len(report[name]) != n:
            raise ValueError(f"--{name} needs {n} entries, got {len(report[name])}")
        vecs.append(WittVector(ring.from_int(v) for v in report[name]))
    op = {"add": witt_add, "mul": witt_mul, "neg": witt_neg}[args.action]
    result = op(*vecs, table)
    report["result"] = [int(c.coords[0]) for c in result]
    report["ghost_check"] = _ghost_check(args.action, vecs, result)
    return report, report["ghost_check"]


def _ghost_check(action, vecs, result):
    """Ghost components of the result must match the ghost-side operation."""
    for j in range(result.n):
        g = [ghost_eval(v, j) for v in vecs]
        if action == "neg":
            want = -g[0]
        else:
            want = g[0] + g[1] if action == "add" else g[0] * g[1]
        if ghost_eval(result, j) != want:
            return False
    return True


def _cmd_wbar(args):
    p, n = args.p, args.n
    _check_prime_height(p, n)
    if args.weight < 0:
        raise ValueError(f"--weight must be >= 0, got {args.weight}")
    report = {"p": p, "n": n}
    report["section_dims"] = {
        str(m): section_dim(p, n, m) for m in range(args.weight + 1)
    }
    rec = pushforward_recursion_check(p, n)
    report["pushforward_recursion"] = (
        f"{rec['lhs']} = {rec['constant']} + {rec['twisted']}"
    )
    ledger = divisor_ledger(p, n)
    report["ledger_components"] = {
        str(i): repr(comp) for i, comp in sorted(ledger.components.items())
    }
    report["ledger_inertia_orders"] = {
        str(i): v for i, v in sorted(ledger.inertia_orders.items())
    }
    report["ledger_boundary_class"] = repr(ledger.boundary_class)
    gens = [ChowClass.generator(p, n, i) for i in range(1, n + 1)]
    pullback_ok = all(psi_pullback(cls) == p * cls for cls in gens)
    report["pullback_multiplies_by_codim_power"] = pullback_ok
    if args.psi:
        report["psi"] = repr(psi_on_sections(p, n - 1))
    return report, pullback_ok


def _cmd_grid(args):
    if args.nu_max < 1:
        raise ValueError(f"--nu-max must be >= 1, got {args.nu_max}")
    ps = _parse_int_list(args.p)
    ns = _parse_int_list(args.n)
    cases = []
    mismatches = 0
    for p in ps:
        for n in ns:
            for nu in _nu_tuples(p, n, args.nu_max):
                datum = CoverDatum.from_orders(p, n, 1, list(nu))
                _tower, _filtration, invariants = analyze_tower(datum)
                brute = invariants["conductor_filtration"]
                closed = theorem_conductor(p, n, nu)["conductor"]
                oracle = section_degree_oracle(p, n, nu)["M"] + 1
                match = brute == closed == oracle
                mismatches += 0 if match else 1
                cases.append(
                    {
                        "p": p,
                        "n": n,
                        "nu": list(nu),
                        "conductor": brute,
                        "closed_form": closed,
                        "lattice_oracle": oracle,
                        "different": invariants["different"],
                        "match": match,
                    }
                )
    summary = (
        f"all {len(cases)} cases: formula = brute force"
        if mismatches == 0
        else f"{mismatches} of {len(cases)} cases mismatch"
    )
    return {"cases": cases, "summary": summary}, mismatches == 0


def _nu_tuples(p, n, nu_max):
    """All pole-order tuples with entries in 1..nu_max prime to p, sorted."""
    pool = [v for v in range(1, nu_max + 1) if v % p]
    out = [()]
    for _ in range(n):
        out = [t + (v,) for t in out for v in pool]
    return out


# ---------- argument parsing and dispatch ----------


def _add_common(sub):
    sub.add_argument("--p", type=int, help="prime")
    sub.add_argument("--n", type=int, help="vector length / tower height")
    sub.add_argument("--nu", type=str, default=None, help="pole orders, comma-separated")
    sub.add_argument("--datum", type=str, default=None, help="JSON datum document path")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", type=int, default=1, help="extension degree f of F_(p^f)")
    parser = argparse.ArgumentParser(
        prog="wittram",
        description="Exact ramification invariants of cyclic p-power covers of k((s)).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser(
        "conductor", parents=[common], help="closed formula vs lattice oracle"
    )
    _add_common(sc)

    st = subs.add_parser(
        "tower", parents=[common, field], help="build the tower and all invariants"
    )
    _add_common(st)
    st.add_argument("--deep", action="store_true", help="also run pole/sort checks")

    sl = subs.add_parser(
        "local-symbol", parents=[common, field], help="residue pairings for a datum"
    )
    _add_common(sl)
    sl.add_argument("--alpha", type=str, default=None, help="unit series as JSON [[e,c],...]")
    sl.add_argument("--probe", action="store_true", help="vanishing probe at the bound")
    sl.add_argument("--trials", type=int, default=25)
    sl.add_argument("--seed", type=int, default=0, help="seed for the probe's trials")

    sw = subs.add_parser(
        "witt", parents=[common], help="polynomial tables and vector arithmetic"
    )
    sw.add_argument("action", choices=["table", "add", "mul", "neg"])
    sw.add_argument("--p", type=int, required=True)
    sw.add_argument("--n", type=int, required=True)
    sw.add_argument("--products", action="store_true", help="include product polynomials")
    sw.add_argument("--x", type=str, default=None, help="first vector, comma-separated")
    sw.add_argument("--y", type=str, default=None, help="second vector")
    sw.add_argument("--mod-digits", type=int, default=3, help="work over Z/p^this")

    sb = subs.add_parser(
        "wbar", parents=[common], help="graded sections, Chow classes, divisor ledger"
    )
    sb.add_argument("--p", type=int, required=True)
    sb.add_argument("--n", type=int, required=True)
    sb.add_argument("--weight", type=int, default=3, help="tabulate dims up to this weight")
    sb.add_argument("--psi", action="store_true", help="print the level-n section map")

    sg = subs.add_parser(
        "grid", parents=[common], help="batch cross-validation over parameter ranges"
    )
    sg.add_argument("--p", type=str, required=True, help="primes, comma-separated")
    sg.add_argument("--n", type=str, required=True, help="heights, comma-separated")
    sg.add_argument("--nu-max", type=int, default=7)

    return parser


COMMANDS = {
    "conductor": _cmd_conductor,
    "tower": _cmd_tower,
    "local-symbol": _cmd_local_symbol,
    "witt": _cmd_witt,
    "wbar": _cmd_wbar,
    "grid": _cmd_grid,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, ok = COMMANDS[args.command](args)
    except WittramError as exc:
        print(f"error [{_error_code(exc)}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error [{_error_code(exc)}]: {exc}", file=sys.stderr)
        return 2
    _emit(report, "json" if args.json else "human")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
