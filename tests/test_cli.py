"""Command-line surface: parsing, subcommand reports, exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

from wittram.cli import (
    format_packed_poly,
    main,
    parse_datum,
)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_usage_error(argv, flags=()):
    """The CLI in a fresh interpreter exits 2 with a value-error line."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "wittram.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error [value-error]: ")
    assert "Traceback" not in proc.stderr


def test_tower_frozen_example(capsys):
    code, out, _ = _run(capsys, "tower", "--p", "2", "--n", "2", "--nu", "3,1")
    assert code == 0
    assert "conductor: 7" in out
    assert "different: 18" in out
    assert "breaks: [3, 9]" in out


def test_tower_p7_single_pass(capsys):
    # p = 7 tops need the planned window; the subcommand reports exactly
    # what the library's analysis reports
    from wittram.tower import CoverDatum, analyze_tower

    code, out, err = _run(capsys, "tower", "--p", "7", "--n", "2", "--nu", "3,1", "--json")
    assert code == 0, err
    doc = json.loads(out)
    _tw, filt, report = analyze_tower(CoverDatum.from_orders(7, 2, 1, (3, 1)))
    for key, value in report.items():
        assert doc[key] == (list(value) if isinstance(value, tuple) else value), key
    assert doc["breaks"] == list(filt.breaks)
    assert doc["match"] is True


def test_tower_deep_reports_program_bound(capsys):
    # the carry-pole program at the observed slot valuations is sharper than
    # the closed bound here, and the observed valuation respects both
    argv = ["tower", "--p", "2", "--n", "2", "--nu", "1,3", "--deep", "--json"]
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    carry = json.loads(out)["sort_bound"]["carry_bound"]
    assert (carry["bound"], carry["lp_bound"], carry["valuation_lower_bound"]) == (-21, -18, -16)


def test_tower_deep_reports_carry_bound_at_height_three(capsys):
    # c_3 has 37,758 table terms at p = 5; the carry goes through ghost
    # components, and its valuation meets the closed bound
    argv = ["tower", "--p", "5", "--n", "3", "--nu", "2,1,1", "--deep", "--json"]
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    carry = json.loads(out)["sort_bound"]["carry_bound"]
    assert carry == {
        "valuation_lower_bound": -31050,
        "bound": -31050,
        "lp_bound": -31050,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "2", "--n", "0", "--nu", ""],
        ["--p", "2", "--n", "-1", "--nu", "1"],
        ["--p", "2", "--n", "1", "--nu", ""],
        ["--p", "3", "--n", "2", "--nu", "3,1"],
        ["--p", "2", "--n", "1", "--nu", "0"],
        ["--p", "11", "--n", "1", "--nu", "1"],
    ],
    ids=["n=0", "n=-1", "empty-nu", "p-divisible-nu", "nu=0", "prime-11"],
)
def test_tower_malformed_datum_is_usage_error(argv):
    _assert_usage_error(["tower", *argv])


@pytest.mark.parametrize(
    "flags, argv",
    [
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "1", "--alpha", "[[0,[1,1,1]]]"]),
        (
            ("-O",),
            ["local-symbol", "--p", "2", "--n", "1", "--nu", "1", "--field", "2",
             "--alpha", "[[0,[1]]]"],
        ),
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "1", "--alpha", "5"]),
        ((), ["witt", "add", "--p", "3", "--n", "2", "--x", "1", "--y", "1"]),
        ((), ["witt", "neg", "--p", "3", "--n", "2"]),
        ((), ["conductor", "--p", "4", "--n", "1", "--nu", "1"]),
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "3", "--probe", "--trials", "0"]),
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "3", "--probe", "--trials", "-5"]),
        ((), ["tower", "--datum", '{"p": 2, "n": 1, "nu": 3}']),
        ((), ["tower", "--datum", '{"p": null, "n": 1, "nu": [3]}']),
        ((), ["tower", "--datum", '{"p": 2, "n": [1], "nu": [3]}']),
        ((), ["tower", "--datum", '{"p": 2, "n": 1, "nu": [3], "field": null}']),
        ((), ["tower", "--datum", '{"p": 2, "n": 2, "nu": "31"}']),
        ((), ["tower", "--datum", '{"p": 2, "n": 1, "nu": [3.7]}']),
        ((), ["tower", "--datum", '{"p": 2.0, "n": 1, "nu": [3]}']),
        ((), ["tower", "--datum", '{"p": 2, "n": true, "nu": [3]}']),
        ((), ["witt", "add", "--p", "4", "--n", "2", "--x", "1,2", "--y", "1,1"]),
        ((), ["witt", "table", "--p", "2", "--n", "0"]),
        ((), ["wbar", "--p", "4", "--n", "1"]),
        ((), ["wbar", "--p", "2", "--n", "1", "--weight", "-1"]),
        ((), ["tower", "--p", "2", "--n", "2", "--nu", "3,,1"]),
        ((), ["witt", "add", "--p", "3", "--n", "2", "--x", "1,,2", "--y", "1,1"]),
        ((), ["grid", "--p", "2,,3", "--n", "1", "--nu-max", "1"]),
        ((), ["grid", "--p", "2", "--n", "1", "--nu-max", "0"]),
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "3", "--alpha", "[[0,1],[1.9,1]]"]),
        ((), ["tower", "--datum", '{"p": 2, "n": 1, "u": [[["-3", 1]]]}']),
        ((), ["local-symbol", "--p", "2", "--n", "1", "--nu", "3", "--alpha", "[[0,true]]"]),
        ((), ["tower", "--datum", '{"p": 2, "n": 1, "field": 2, "u": [[[-3, [1, 0.5]]]]}']),
        (
            (),
            ["local-symbol", "--p", "2", "--n", "1", "--nu", "1", "--field", "2",
             "--alpha", "[[0,[1,0.5]]]"],
        ),
    ],
    ids=["alpha-coords", "alpha-coords-optimized", "alpha-not-a-list", "witt-short-vector",
         "witt-missing-x", "p-not-prime", "probe-no-trials", "probe-negative-trials",
         "datum-nu-not-a-list", "datum-p-null", "datum-n-a-list", "datum-field-null",
         "datum-nu-a-string", "datum-nu-float", "datum-p-float", "datum-n-bool",
         "witt-p-not-prime", "witt-n-zero", "wbar-p-not-prime", "wbar-negative-weight",
         "nu-empty-item", "witt-empty-item", "grid-empty-item", "grid-nu-max-zero",
         "alpha-exponent-float", "datum-u-exponent-string", "alpha-coefficient-bool",
         "datum-u-coordinate-float", "alpha-coordinate-float"],
)
def test_malformed_input_is_usage_error(flags, argv, tmp_path):
    # a datum document is written inline in the row and handed over as a file
    if "--datum" in argv:
        k = argv.index("--datum") + 1
        path = tmp_path / "datum.json"
        path.write_text(argv[k])
        argv = [*argv[:k], str(path), *argv[k + 1 :]]
    _assert_usage_error(argv, flags)


@pytest.mark.parametrize(
    "argv",
    [
        ["conductor", "--p", "2", "--n", "1", "--nu", "1", "--budget-factor", "4"],
        ["tower", "--p", "2", "--n", "1", "--nu", "1", "--seed", "3"],
        ["conductor", "--p", "2", "--n", "1", "--nu", "3", "--field", "9"],
        ["tower", "--p", "2", "--n", "1", "--nu", "1", "--budget-factor", "4"],
        ["grid", "--p", "2", "--n", "1", "--budget-factor", "4"],
    ],
    ids=["conductor-budget-factor", "tower-seed", "conductor-field", "tower-budget-factor",
         "grid-budget-factor"],
)
def test_option_outside_its_subcommand_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_error_code_keeps_acronyms_whole(capsys):
    code, _out, err = _run(
        capsys, "local-symbol", "--p", "3", "--n", "1", "--nu", "2", "--alpha", "[[0,1],"
    )
    assert code == 2
    assert err.startswith("error [json-decode-error]: ")


def test_conductor_json_report(capsys):
    code, out, _ = _run(
        capsys, "conductor", "--p", "3", "--n", "2", "--nu", "5,7", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conductor_closed_form"] == 16
    assert doc["conductor_lattice_oracle"] == 16
    assert doc["match"] is True
    assert doc["different"] == 108


def test_json_output_is_stable(capsys):
    argv = ["wbar", "--p", "2", "--n", "3", "--json"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_datum_shorthand():
    d = parse_datum({"p": 2, "n": 2, "nu": [3, 1]})
    assert d.nu == (3, 1)
    assert [e.valuation() for e in d.entries] == [-3, -1]
    # single-monomial expansion with unit coefficient
    assert all(len(e.terms()) == 1 for e in d.entries)


def test_parse_datum_literal():
    d = parse_datum({"p": 2, "n": 1, "u": [[[-3, 1], [-1, 1]]]})
    assert d.nu == (3,)
    assert len(d.entries[0].terms()) == 2


def test_parse_datum_rejects_divisible_order():
    with pytest.raises(ValueError, match="divisible"):
        parse_datum({"p": 2, "n": 1, "nu": [4]})


def test_cli_rejects_divisible_order(capsys):
    code, _out, err = _run(capsys, "conductor", "--p", "2", "--n", "1", "--nu", "4")
    assert code == 2
    assert "error [value-error]" in err
    assert "divisible" in err


def test_missing_inputs_is_usage_error(capsys):
    code, _out, err = _run(capsys, "tower", "--p", "2", "--n", "2")
    assert code == 2
    assert "provide --p, --n and --nu" in err


def test_datum_file_round_trip(tmp_path, capsys):
    doc = {"p": 2, "n": 2, "nu": [3, 1]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "tower", "--datum", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["conductor"] == 7
    assert report["breaks"] == [3, 9]


def test_witt_table_dump(capsys):
    code, out, _ = _run(capsys, "witt", "table", "--p", "2", "--n", "2")
    assert code == 0
    assert "S_0: X0 + Y0" in out
    assert "c_1: -X0*Y0" in out
    assert "I_1: -Y0^2 - Y1" in out


def test_witt_eval_ghost_checked(capsys):
    code, out, _ = _run(
        capsys,
        "witt", "add", "--p", "2", "--n", "3",
        "--x", "1,0,1", "--y", "1,1,0", "--mod-digits", "4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ghost_check"] is True
    assert doc["mod"] == 16
    code2, out2, _ = _run(
        capsys, "witt", "neg", "--p", "3", "--n", "2", "--x", "1,1", "--json"
    )
    assert code2 == 0
    assert json.loads(out2)["ghost_check"] is True


def test_witt_eval_requires_second_vector(capsys):
    code, _out, err = _run(capsys, "witt", "add", "--p", "2", "--n", "2", "--x", "1,0")
    assert code == 2
    assert "--y is required" in err


def test_wbar_report(capsys):
    code, out, _ = _run(capsys, "wbar", "--p", "2", "--n", "2", "--psi")
    assert code == 0
    assert "pushforward_recursion: 10 = 1 + 9" in out
    assert "ledger_boundary_class: x_2" in out
    assert "pullback_multiplies_by_codim_power: True" in out
    assert "Y_1^2" in out


def test_local_symbol_pairing(capsys):
    code, out, _ = _run(
        capsys,
        "local-symbol", "--p", "2", "--n", "1", "--nu", "1",
        "--alpha", "[[0,1],[1,1]]", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["symbol"] == [[1]]
    assert doc["symbol_zero"] is False


def test_local_symbol_probe(capsys):
    code, out, _ = _run(
        capsys,
        "local-symbol", "--p", "2", "--n", "1", "--nu", "3",
        "--probe", "--trials", "5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus_bound"] == 3
    assert doc["probe_trials"] == 5
    # u = 1/s^3 has ghost pole depth 3 = the bound: no generator is needed
    assert doc["probe_certificate"] == {"pole_depth": 3, "generators": 0}
    assert doc["witness_found"] is True


def test_grid_summary(capsys):
    code, out, _ = _run(capsys, "grid", "--p", "2", "--n", "1,2", "--nu-max", "5")
    assert code == 0
    # 3 odd orders once, then squared for n = 2
    assert "all 12 cases: formula = brute force" in out
    header = out.splitlines()[0].split()
    assert header[:3] == ["p", "n", "nu"]


def test_format_packed_poly_constant_and_signs():
    from wittram import intpoly as ip

    poly = {ip.mono(0, 0): 3, ip.mono(2, 1): -1}
    text = format_packed_poly(poly, 2)
    assert text == "X0^2*Y0 - 3" or text == "-X0^2*Y0 + 3"
    assert format_packed_poly({}, 2) == "0"
