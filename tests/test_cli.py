"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import csv
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_toolkit import TruncatedDirichletSeries, analysis, cli, suites
from dirichlet_toolkit.cli import main


def run(args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- build ----------------------------------------------------------------


def test_build_zeta(tmp_path):
    out = tmp_path / "zeta.json"
    assert run(["build", "zeta", "--window", "8", "--out", str(out)]) == 0
    f = TruncatedDirichletSeries.load(out)
    assert f.window == 8 and f.support() == list(range(1, 9))
    assert read_json(out)["provenance"]["argv"][0] == "dirichlet-toolkit"


def test_build_monomial_exact(tmp_path):
    out = tmp_path / "m.json"
    assert run(["build", "monomial", "5", "3/2,-1", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["coeffs"]["5"] == ["3/2", "-1"]


def test_build_monomial_float(tmp_path):
    out = tmp_path / "m.json"
    assert run(["build", "monomial", "5", "1.5,-2", "--mode", "float", "--out", str(out)]) == 0
    assert read_json(out)["coeffs"]["5"] == [1.5, -2.0]
    assert run(["build", "monomial", "5", "1e-3", "--mode", "float", "--out", str(out)]) == 0
    assert read_json(out)["coeffs"]["5"] == [1e-3, 0.0]


@pytest.mark.parametrize(
    "mode, text",
    [("float", "nan"), ("float", "inf,0"), ("float", "1e400"), ("float", "2j"),
     ("exact", "nan"), ("exact", "1,2,3")],
    ids=["float-nan", "float-inf", "float-overflow", "python-literal", "exact-nan", "three-parts"],
)
def test_build_monomial_rejects_a_bad_coefficient(tmp_path, capsys, mode, text):
    # a CLI scalar is parsed and checked as a series file coefficient is
    out = tmp_path / "m.json"
    assert run(["build", "monomial", "2", text, "--mode", mode, "--out", str(out)]) == 2
    assert f"scalar {text!r}" in capsys.readouterr().err
    assert not out.exists()


def test_build_random_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(
            ["build", "random", "--window", "64", "--seed", "7", "--out", str(out)]
        ) == 0
    assert read_json(a)["coeffs"] == read_json(b)["coeffs"]


@pytest.mark.parametrize("density", ["nan", "-1", "1.5"])
def test_build_random_rejects_a_density_outside_the_unit_interval(tmp_path, capsys, density):
    out = tmp_path / "r.json"
    assert run(["build", "random", "--density", density, "--out", str(out)]) == 2
    assert "density" in capsys.readouterr().err
    assert not out.exists()


def test_build_usage_error(tmp_path):
    assert run(["build", "monomial", "5", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("window", [4, 64])
def test_build_file_keeps_the_window(tmp_path, window):
    src, out = tmp_path / "z.json", tmp_path / "copy.json"
    run(["build", "zeta", "--window", str(window), "--out", str(src)])
    assert run(["build", "file", str(src), "--out", str(out)]) == 0
    f = TruncatedDirichletSeries.load(out)
    assert f.window == window and len(f) == window


@pytest.mark.parametrize("window", [10, 40])
def test_build_file_applies_an_explicit_window(tmp_path, window):
    src, out = tmp_path / "z.json", tmp_path / "copy.json"
    run(["build", "zeta", "--window", "20", "--out", str(src)])
    assert run(["build", "file", str(src), "--window", str(window), "--out", str(out)]) == 0
    f = TruncatedDirichletSeries.load(out)
    assert f.window == window and f.support() == list(range(1, min(window, 20) + 1))


# -- op -------------------------------------------------------------------


def test_op_mul_and_invert(tmp_path):
    z = tmp_path / "zeta.json"
    run(["build", "zeta", "--window", "16", "--out", str(z)])
    mu = tmp_path / "mu.json"
    assert run(["op", "invert", str(z), "--out", str(mu)]) == 0
    prod = tmp_path / "prod.json"
    assert run(["op", "mul", str(z), str(mu), "--out", str(prod)]) == 0
    got = TruncatedDirichletSeries.load(prod)
    assert got == TruncatedDirichletSeries.unit(16)


def test_op_invert_noninvertible_exits_3(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--out", str(f)])
    assert run(["op", "invert", str(f), "--out", str(tmp_path / "g.json")]) == 3


@pytest.mark.parametrize(
    "name, window, coeffs, message",
    [
        ("invert", 2, {"1": [1.5e308, 1.5e308], "2": [1, 0]}, "1/a_1 = "),
        ("invert", 8, {"1": [1, 0], "2": [1e200, 0]}, "op invert: result coefficient 4 is"),
        ("mul", 8, {"1": [1, 0], "2": [1e200, 0]}, "op mul: result coefficient 4 is"),
    ],
    ids=["invert-of-a-huge-a1", "invert-overflows", "mul-overflows"],
)
def test_float_op_with_a_nonfinite_result_exits_3(tmp_path, capsys, name, window, coeffs, message):
    # the inputs are finite; 1/a_1 underflows to 0, or a result coefficient overflows
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": window, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "o.json"
    inputs = [str(f)] * (2 if name == "mul" else 1)
    assert run(["op", name, *inputs, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, r, expected", [("exact", "1/2", ["1/4", "0"]), ("float", "0.5,0.5", [0.0, 0.5])]
)
def test_op_dilate(tmp_path, mode, r, expected):
    # dilation scales a_4 of zeta by r^Omega(4) = r^2
    f, out = tmp_path / "z.json", tmp_path / "d.json"
    run(["build", "zeta", "--window", "8", "--mode", mode, "--out", str(f)])
    assert run(["op", "dilate", str(f), "--r", r, "--out", str(out)]) == 0
    assert read_json(out)["coeffs"]["4"] == expected


@pytest.mark.parametrize("r", ["inf", "nan", "1,inf"])
def test_op_dilate_rejects_a_nonfinite_r(tmp_path, capsys, r):
    f, out = tmp_path / "z.json", tmp_path / "d.json"
    run(["build", "zeta", "--window", "8", "--mode", "float", "--out", str(f)])
    assert run(["op", "dilate", str(f), "--r", r, "--out", str(out)]) == 2
    assert f"scalar {r!r}: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_op_lift_drop_round_trip(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "random", "--window", "40", "--seed", "3", "--out", str(f)])
    p = tmp_path / "p.json"
    assert run(["op", "lift", str(f), "--out", str(p)]) == 0
    g = tmp_path / "g.json"
    assert run(["op", "drop", str(p), "--window", "40", "--out", str(g)]) == 0
    assert read_json(g)["window"] == 40
    assert TruncatedDirichletSeries.load(g) == TruncatedDirichletSeries.load(f)


def test_op_drop_sieves_only_as_far_as_the_polynomial(tmp_path, monkeypatch):
    # x1^20 is 2^20 and x3 is p_3 = 5: the sieve must reach 2^20 and no further
    p = tmp_path / "p.json"
    terms = [{"exp": {"1": 20}, "c": [1.0, 0.0]}, {"exp": {"3": 1}, "c": [2.0, 0.0]}]
    p.write_text(json.dumps({"nvars": 3, "mode": "float", "terms": terms}))
    bounds = []
    real = cli.PrimeTable

    def recording(bound):
        bounds.append(bound)
        return real(bound)

    monkeypatch.setattr(cli, "PrimeTable", recording)
    g = tmp_path / "g.json"
    assert run(["op", "drop", str(p), "--out", str(g)]) == 0
    assert TruncatedDirichletSeries.load(g).coeffs == {2**20: 1.0, 5: 2.0}
    assert max(bounds) == 2**20


@pytest.mark.parametrize(
    "index, code, expected",
    [(640_000, 0, {9_602_443: 1.0}), (700_000, 3, "prime index 700000 beyond table")],
    ids=["prime-within-limit", "prime-beyond-limit"],
)
def test_op_drop_of_a_large_variable_index(tmp_path, capsys, index, code, expected):
    # the Rosser bound for either index passes the sieve limit 10^7, but
    # p_640000 = 9602443 lies within it and p_700000 does not
    p = tmp_path / "p.json"
    terms = [{"exp": {str(index): 1}, "c": [1.0, 0.0]}]
    p.write_text(json.dumps({"nvars": index, "mode": "float", "terms": terms}))
    g = tmp_path / "g.json"
    assert run(["op", "drop", str(p), "--out", str(g)]) == code
    if code == 0:
        assert TruncatedDirichletSeries.load(g).coeffs == expected
    else:
        assert expected in capsys.readouterr().err


def test_op_act_and_project(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    moved = tmp_path / "moved.json"
    assert run(["op", "act", str(f), "--perm", "(1 2)", "--out", str(moved)]) == 0
    assert TruncatedDirichletSeries.load(moved).support() == [3]
    proj = tmp_path / "proj.json"
    assert run(
        ["op", "project", str(f), "--gens", "(1 2)", "--out", str(proj)]
    ) == 0
    doc = read_json(proj)
    assert doc["coeffs"]["2"] == ["1/2", "0"] and doc["coeffs"]["3"] == ["1/2", "0"]


def test_op_restrict(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "10", "--out", str(f)])
    out = tmp_path / "r.json"
    assert run(["op", "restrict", str(f), "--indices", "1", "--out", str(out)]) == 0
    assert TruncatedDirichletSeries.load(out).support() == [1, 2, 4, 8]


def test_op_project_sieves_to_the_generators(tmp_path):
    # the window 10 holds 4 primes; the sieve also covers p_5 = 11, which (1 5) reaches
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    out = tmp_path / "p.json"
    assert run(["op", "project", str(f), "--gens", "(1 5)", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["window"] == 11 and doc["coeffs"] == {"2": ["1/2", "0"], "11": ["1/2", "0"]}


def test_op_project_beyond_the_table_exits_3(tmp_path, capsys):
    # the sieve stops at its limit 10^7, which holds 664579 primes; (1 700000)
    # needs more, for the projection's orbit as for the action.
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    out = str(tmp_path / "p.json")
    assert run(["op", "project", str(f), "--gens", "(1 700000)", "--out", out]) == 3
    assert "prime index 700000 beyond table" in capsys.readouterr().err
    assert run(["op", "act", str(f), "--perm", "(1 700000)", "--out", out]) == 3
    assert "prime index 700000 beyond table" in capsys.readouterr().err


def test_op_project_reaches_as_far_as_the_sieve(tmp_path):
    # the sieve for (1 200000) holds p_200000 = 2750159, so its orbit resolves
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    out = tmp_path / "p.json"
    assert run(["op", "project", str(f), "--gens", "(1 200000)", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["window"] == 2_750_159
    assert doc["coeffs"] == {"2": ["1/2", "0"], "2750159": ["1/2", "0"]}


def test_main_twice_in_one_process_starts_from_fresh_arguments(tmp_path):
    # the parser is built once per process; the list that --gens appends to
    # must not carry over from one call to the next
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["op", "project", str(f), "--gens", "(1 2)", "--gens", "(1 3)", "--out", str(first)]) == 0
    assert run(["op", "project", str(f), "--gens", "(1 4)", "--out", str(second)]) == 0
    third = ["1/3", "0"]
    assert read_json(first)["coeffs"] == {"2": third, "3": third, "5": third}
    assert read_json(second)["coeffs"] == {"2": ["1/2", "0"], "7": ["1/2", "0"]}
    assert cli.build_parser() is cli.build_parser()
    assert run(["op", "project", str(f), "--out", str(tmp_path / "c.json")]) == 2
    # a parse error still exits 2; op has no --policy flag
    with pytest.raises(SystemExit) as exc:
        run(["op", "project", str(f), "--gens", "(1 2)", "--policy", "error", "--out", str(second)])
    assert exc.value.code == 2


def test_op_project_needs_gens(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "4", "--out", str(f)])
    assert run(["op", "project", str(f), "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("op, count", [("mul", 1), ("add", 3), ("invert", 2), ("drop", 2)])
def test_op_wrong_input_count_exits_2(tmp_path, capsys, op, count):
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "4", "--out", str(f)])
    assert run(["op", op, *[str(f)] * count, "--out", str(tmp_path / "o.json")]) == 2
    assert f"op {op} needs" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert run(["op", "invert", str(tmp_path / "absent.json"), "--out", "x.json"]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["op", "invert", "{dir}", "--out", "{tmp}/o.json"],
        ["analyze", "line-sup", "{dir}", "--out", "{tmp}/o.json"],
        ["analyze", "line-sup", "{file}", "--out", "{dir}"],
    ],
    ids=["op-input", "analyze-input", "out"],
)
def test_directory_path_exits_2(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "8", "--out", str(f)])
    args = [a.format(dir=folder, tmp=tmp_path, file=f) for a in command]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- verify ---------------------------------------------------------------


def test_verify_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "--suite", "lemma6.4", "--trials", "5", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["suite"] == "lemma6.4" and doc["failures"] == []


def test_verify_all_is_deterministic_apart_from_timing(tmp_path):
    docs = []
    for k in range(2):
        out = tmp_path / f"all-{k}.json"
        assert run(["verify", "--suite", "all", "--seed", "3", "--trials", "1", "--out", str(out)]) == 0
        docs.append(read_json(out))
    for doc in docs:
        for record in doc:
            assert record.pop("elapsed") >= 0
    # field for field and in the same order
    assert [list(r.items()) for r in docs[0]] == [list(r.items()) for r in docs[1]]
    assert [r["suite"] for r in docs[0]] == list(suites.SUITES)


def test_verify_unknown_suite():
    assert run(["verify", "--suite", "nope"]) == 2


def test_verify_rejects_a_negative_trial_count(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "perron", "--trials", "-3", "--out", str(out)]) == 2
    assert "trials must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


# -- analyze --------------------------------------------------------------


def test_analyze_torus_and_line_sup(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "8", "--out", str(f)])
    out = tmp_path / "t.json"
    assert run(["analyze", "torus-sup", str(f), "--grid", "8", "--out", str(out)]) == 0
    assert read_json(out)["value"] == pytest.approx(8.0, abs=1e-9)
    out2 = tmp_path / "l.json"
    assert run(
        ["analyze", "line-sup", str(f), "--T", "10", "--samples", "2001", "--out", str(out2)]
    ) == 0
    assert read_json(out2)["value"] == pytest.approx(8.0, abs=1e-9)


def test_analyze_seminorm_profile_csv(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--out", str(f)])
    out = tmp_path / "profile.csv"
    assert run(
        ["analyze", "seminorm-profile", str(f), "--r-grid", "0.1:0.9:5", "--out", str(out)]
    ) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[0]["r"]) == pytest.approx(0.1)
    # P_r of the single prime monomial is r itself
    for row in rows:
        assert float(row["value"]) == pytest.approx(float(row["r"]), abs=1e-9)


def test_analyze_seminorm_profile_grid_ends_at_one(tmp_path):
    # 0.2 + (1.0 - 0.2) * 3 / 3 rounds to 1.0000000000000002, past r = 1
    f = tmp_path / "f.json"
    run(["build", "zeta", "--window", "12", "--out", str(f)])
    out = tmp_path / "profile.json"
    assert run(
        ["analyze", "seminorm-profile", str(f), "--r-grid", "0.2:1.0:4", "--out", str(out)]
    ) == 0
    r_grid = read_json(out)["witness"]["r_grid"]
    assert len(r_grid) == 4
    assert r_grid[-1] == 1.0


@pytest.mark.parametrize("spec", ["0.1:0.9:0", "0.1:0.9:-3"])
def test_analyze_seminorm_profile_rejects_a_grid_without_points(tmp_path, capsys, spec):
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--out", str(f)])
    out = tmp_path / "profile.json"
    assert run(["analyze", "seminorm-profile", str(f), "--r-grid", spec, "--out", str(out)]) == 2
    assert repr(spec) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0.9:0.1:17", "0.5:0.5:3"])
def test_analyze_seminorm_profile_rejects_a_bad_grid_before_any_sup(
    tmp_path, capsys, monkeypatch, spec
):
    # a decreasing grid, and a grid with a point above r = 1
    calls = []
    monkeypatch.setattr(analysis, "torus_sup", lambda *a, **k: calls.append(a))
    f = tmp_path / "z.json"
    run(["build", "zeta", "--window", "10", "--mode", "float", "--out", str(f)])
    out = tmp_path / "profile.json"
    assert run(["analyze", "seminorm-profile", str(f), "--r-grid", spec, "--out", str(out)]) == 2
    assert "strictly increasing inside (0, 1]" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_analyze_perron_and_cauchy(tmp_path):
    f = tmp_path / "f.json"
    run(["build", "monomial", "5", "3", "--window", "10", "--out", str(f)])
    out = tmp_path / "p.json"
    assert run(
        ["analyze", "perron", str(f), "--n", "5", "--kappa", "2", "--R", "2000", "--out", str(out)]
    ) == 0
    doc = read_json(out)
    assert doc["value"][0] == pytest.approx(3.0, abs=1e-3)
    out2 = tmp_path / "c.json"
    assert run(
        ["analyze", "cauchy", str(f), "--n", "5", "--grid", "4", "--r", "0.5", "--out", str(out2)]
    ) == 0
    assert read_json(out2)["value"][0] == pytest.approx(3.0, abs=1e-10)


def test_analyze_cauchy_derives_a_grid_that_does_not_alias(tmp_path):
    # 256 = 2^8 needs 9 points per variable; the torus-sup default of 8
    # would fold x1^8 onto the constant term and give 2
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 256, "mode": "float", "coeffs": {"1": [1.0, 0.0], "256": [1.0, 0.0]}}))
    out = tmp_path / "c.json"
    assert run(["analyze", "cauchy", str(f), "--n", "1", "--r", "1", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["value"][0] == pytest.approx(1.0, abs=1e-12)
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"


def test_analyze_records_only_the_flags_its_kind_reads(tmp_path):
    # cauchy derives its grid and never reads --grid, --sigma or --T
    f = tmp_path / "f.json"
    run(["build", "monomial", "5", "3", "--window", "10", "--out", str(f)])
    out = tmp_path / "c.json"
    assert run(["analyze", "cauchy", str(f), "--n", "5", "--grid", "4", "--out", str(out)]) == 0
    params = read_json(out)["params"]
    assert not {"grid", "sigma", "T"} & set(params)
    assert params == {"kind": "cauchy", "input": str(f), "n": 5, "r": 1.0}


def test_analyze_cauchy_grid_beyond_the_budget_exits_3(tmp_path, capsys):
    # x1^8 and six more variables: the exact grid 9^7 passes 2^22 points
    f = tmp_path / "f.json"
    coeffs = {"256": [1.0, 0.0], str(3 * 5 * 7 * 11 * 13 * 17): [1.0, 0.0]}
    f.write_text(json.dumps({"window": 255255, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "c.json"
    assert run(["analyze", "cauchy", str(f), "--n", "256", "--out", str(out)]) == 3
    assert "grid 9^7 exceeds the point budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["5", "nan", "0"])
def test_analyze_cauchy_rejects_a_radius_outside_the_unit_interval(tmp_path, capsys, r):
    # the lift of the unit series is constant, and its radius is still checked
    f = tmp_path / "unit.json"
    run(["build", "unit", "--out", str(f)])
    out = tmp_path / "c.json"
    assert run(["analyze", "cauchy", str(f), "--r", r, "--grid", "4", "--out", str(out)]) == 2
    assert "radius must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--R", "0"), ("--R", "-5"), ("--R", "inf"), ("--R", "1e308"),
     ("--kappa", "0"), ("--kappa", "nan"), ("--kappa", "inf"), ("--n", "0")],
    ids=["R-zero", "R-negative", "R-infinite", "R-doubled-infinite",
         "kappa-zero", "kappa-nan", "kappa-infinite", "n-zero"],
)
def test_analyze_perron_rejects_bad_parameters(tmp_path, capsys, flag, value):
    f = tmp_path / "f.json"
    run(["build", "monomial", "5", "3", "--window", "10", "--out", str(f)])
    out = str(tmp_path / "p.json")
    assert run(["analyze", "perron", str(f), "--n", "5", flag, value, "--out", out]) == 2
    assert "Perron needs n >= 1, kappa > 0 and a finite R > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--T", "nan"), ("--T", "inf"), ("--T", "1e308"), ("--T", "0"), ("--T", "-5"),
     ("--sigma", "inf"), ("--sigma", "nan")],
    ids=["T-nan", "T-infinite", "T-doubled-infinite", "T-zero", "T-negative",
         "sigma-infinite", "sigma-nan"],
)
def test_analyze_line_sup_rejects_bad_parameters(tmp_path, capsys, flag, value):
    f = tmp_path / "f.json"
    run(["build", "monomial", "2", "1", "--window", "10", "--out", str(f)])
    out = tmp_path / "o.json"
    assert run(["analyze", "line-sup", str(f), flag, value, "--out", str(out)]) == 2
    assert "line_sup needs a finite sigma and a finite T > 0" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_line_sup_rejects_an_overflowing_phase(tmp_path, capsys):
    # 2T = 1.6e308 is finite, but the phases reach 2T log 12 > 3.9e308
    f = tmp_path / "zeta.json"
    run(["build", "zeta", "--window", "12", "--mode", "float", "--out", str(f)])
    out = tmp_path / "o.json"
    assert run(["analyze", "line-sup", str(f), "--T", "8e307", "--out", str(out)]) == 2
    assert "line_sup needs a finite sigma and a finite T > 0" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_perron_rejects_an_overflowing_phase(tmp_path, capsys):
    # 2R = 1.6e308 is finite, but the phases reach 2R |log(2/12)| > 2.8e308
    f = tmp_path / "zeta.json"
    run(["build", "zeta", "--window", "12", "--mode", "float", "--out", str(f)])
    out = tmp_path / "p.json"
    assert run(["analyze", "perron", str(f), "--n", "2", "--R", "8e307", "--out", str(out)]) == 2
    assert "Perron needs n >= 1, kappa > 0 and a finite R > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("build", [["zeta", "--window", "8"], ["monomial", "1", "2"]])
def test_analyze_torus_sup_rejects_empty_grid(tmp_path, capsys, build):
    f = tmp_path / "f.json"
    run(["build", *build, "--out", str(f)])
    assert run(["analyze", "torus-sup", str(f), "--grid", "0", "--out", str(tmp_path / "t.json")]) == 3
    assert "grid must be >= 1, got 0" in capsys.readouterr().err


def test_analyze_torus_sup_with_a_negligible_end_coefficient(tmp_path):
    # |c + 10 z + z^2| on |z| = 1 with c at the smallest normal float
    f = tmp_path / "f.json"
    coeffs = {"1": [2.2250738585072014e-308, 0.0], "2": [10.0, 0.0], "4": [1.0, 0.0]}
    f.write_text(json.dumps({"window": 4, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "t.json"
    assert run(["analyze", "torus-sup", str(f), "--out", str(out)]) == 0
    assert read_json(out)["value"] == pytest.approx(11.0, abs=1e-12)


@pytest.mark.parametrize(
    "coeffs, expected",
    [({"2": [5e-324, 0.0]}, 5e-324), ({"2": [5e-324, 0.0], "3": [0.0, 1e-320]}, 5e-324 + 1e-320)],
    ids=["one-term", "two-terms"],
)
def test_analyze_torus_sup_of_subnormal_coefficients(tmp_path, coeffs, expected):
    # the polish rescales the weights toward 1 without overflowing the scale
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 3, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "t.json"
    assert run(["analyze", "torus-sup", str(f), "--out", str(out)]) == 0
    assert read_json(out)["value"] == pytest.approx(expected, rel=0, abs=1e-323)


def test_analyze_sigma_u_of_a_series_beyond_the_torus_grid(tmp_path):
    # zeta(64) lifts to 18 variables: the 3^18-point torus grid exceeds the
    # budget, so the whole lift gets 2 points per variable
    f = tmp_path / "zeta.json"
    run(["build", "zeta", "--window", "64", "--mode", "float", "--out", str(f)])
    out = tmp_path / "s.json"
    assert run(["analyze", "sigma-u", str(f), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["value"] == pytest.approx(1.0, abs=0.02)


def test_analyze_sigma_u_records_its_prefix_sup_count(tmp_path):
    # Prefixes {2} and {2, 3}.  The sup 1 at N' = 3 gives ratio 0, and the
    # l1 bound of N' = 2, log 0.5 / log 2 = -1, rules the other prefix out.
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 6, "mode": "float", "coeffs": {"2": [0.5, 0], "3": [0.5, 0]}}))
    out = tmp_path / "s.json"
    assert run(["analyze", "sigma-u", str(f), "--out", str(out)]) == 0
    assert read_json(out)["witness"]["witness"] == {"prefix": 3, "sups": 1}


def test_analyze_cauchy_overflow_is_a_numeric_failure(tmp_path, capsys):
    # the l1 sum is finite, but the grid average of the lift overflows
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 2, "mode": "float", "coeffs": {"2": [1e308, 1e308]}}))
    out = tmp_path / "c.json"
    assert run(["analyze", "cauchy", str(f), "--grid", "3", "--n", "2", "--out", str(out)]) == 3
    assert "nonfinite Cauchy average" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_prints_no_numpy_warning(tmp_path, capsys):
    # 60^1000 overflows line-sup's weights: exit 3 with its own message only
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 60, "mode": "float", "coeffs": {"1": [1, 0], "60": [1, 0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["analyze", "line-sup", str(f), "--sigma", "-1000", "--out", str(tmp_path / "o.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_analyze_torus_sup_with_an_underflowing_phase(tmp_path):
    # the phase of 1e308 + 1e-313 i underflows, which cmath.phase reports as an OverflowError
    f = tmp_path / "f.json"
    coeffs = {"1": [0.0, 1.0], "2": [1e308, 1e-313]}
    f.write_text(json.dumps({"window": 2, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "t.json"
    assert run(["analyze", "torus-sup", str(f), "--out", str(out)]) == 0
    assert read_json(out)["value"] == 1e308


def test_analyze_line_sup_builds_no_sieve(tmp_path):
    # a window far beyond the sieve limit, which line-sup never needs
    f = tmp_path / "f.json"
    coeffs = {"1": [1.0, 0.0], "2": [1.0, 0.0]}
    f.write_text(json.dumps({"window": 20_000_000, "mode": "float", "coeffs": coeffs}))
    out = tmp_path / "l.json"
    assert run(["analyze", "line-sup", str(f), "--T", "10", "--samples", "201", "--out", str(out)]) == 0
    assert read_json(out)["value"] == pytest.approx(2.0, abs=1e-9)


def test_exact_coefficient_beyond_float_range_is_a_numeric_failure(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"window": 4, "mode": "exact", "coeffs": {"3": ["1e400", "0"]}}))
    assert run(["analyze", "line-sup", str(f), "--out", str(tmp_path / "o.json")]) == 3
    assert "coefficient 3 is too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["analyze", "torus-sup"], ["analyze", "line-sup"], ["analyze", "perron", "--n", "2"]],
    ids=["torus-sup", "line-sup", "perron"],
)
@pytest.mark.parametrize(
    "coeffs",
    [{"1": [1e308, 0.0], "2": [1e308, 0.0]}, {"1": [1.5e308, 1.5e308]}],
    ids=["sum", "modulus"],
)
def test_overflowing_l1_sum_is_a_numeric_failure(tmp_path, capsys, command, coeffs):
    # every part is a finite float; the sum, or one modulus, is not
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"window": 2, "mode": "float", "coeffs": coeffs}))
    assert run([*command[:2], str(f), *command[2:], "--out", str(tmp_path / "o.json")]) == 3
    assert f"{f}: the coefficients' l1 sum overflows a float" in capsys.readouterr().err


# -- malformed series files -----------------------------------------------

_EXACT_ONE = {"window": 4, "mode": "exact"}
_FLOAT_NAN = {"window": 4, "mode": "float", "coeffs": {"1": [1.0, 0.0], "3": [float("nan"), 0.0]}}


@pytest.mark.parametrize(
    "doc, command, message",
    [
        (dict(_EXACT_ONE, coeffs={"1": [1, 0], "2": [None, 0]}), ["op", "invert"], "coefficient 2"),
        (dict(_EXACT_ONE, coeffs={"1": [1, 0], "3": 5}), ["op", "invert"], "coefficient 3"),
        ([[1, 0], [2, 0]], ["op", "invert"], "expected a JSON object"),
        (dict(_EXACT_ONE, coeffs={"1": ["1/0", "0"]}), ["op", "invert"], "coefficient 1"),
        (_FLOAT_NAN, ["analyze", "line-sup"], "coefficient 3: non-finite"),
        (_FLOAT_NAN, ["analyze", "torus-sup"], "coefficient 3: non-finite"),
        ({"window": 4, "coeffs": {"1": [1, 0]}}, ["op", "invert"], "missing field 'mode'"),
        (dict(_EXACT_ONE, coeffs={"1": [True, False]}), ["op", "invert"], "coefficient 1: cannot parse"),
    ],
    ids=["null-part", "bare-number", "top-level-list", "zero-denominator", "nan-line-sup",
         "nan-torus-sup", "missing-mode", "boolean-part"],
)
def test_malformed_series_file_exits_2(tmp_path, capsys, doc, command, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert run([*command, str(f), "--out", str(tmp_path / "o.json")]) == 2
    assert message in capsys.readouterr().err


# +-1e308 is a valid float, but two of them overflow the coefficient l1 sum
_good_part = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3), st.sampled_from([1e308, -1e308]))
_part = st.one_of(
    _good_part,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/3", "-2", "1/0", "1e400", "abc", "", " 2 "]),
    st.none(),
    st.booleans(),
)
_pair = st.one_of(st.lists(_part, max_size=3), _part, st.dictionaries(st.text(max_size=2), _part, max_size=2))
_key = st.one_of(st.integers(-2, 45).map(str), st.text(max_size=3))
_odd = st.one_of(_part, st.text(max_size=3), st.dictionaries(_key, _pair, max_size=4), st.lists(_pair, max_size=2))
_good_doc = st.integers(1, 40).flatmap(
    lambda window: st.fixed_dictionaries(
        {
            "window": st.just(window),
            "mode": st.sampled_from(["exact", "float"]),
            "coeffs": st.dictionaries(
                st.integers(1, window).map(str),
                st.lists(_good_part, min_size=2, max_size=2),
                max_size=6,
            ),
        }
    )
)


def _spoiled(doc, changes, dropped):
    doc = {**doc, **changes}
    for key in dropped:
        doc.pop(key, None)
    return doc


# a well-formed document with up to two fields replaced by odd values (extra
# keys included) and up to one field dropped, or not an object at all
_series_doc = st.one_of(
    st.builds(
        _spoiled,
        _good_doc,
        st.dictionaries(st.sampled_from(["window", "mode", "coeffs", "provenance", "x"]), _odd, max_size=2),
        st.sets(st.sampled_from(["window", "mode", "coeffs"]), max_size=1),
    ),
    _odd,
)
_COMMANDS = [
    ["analyze", "line-sup", "--T", "5", "--samples", "101"],
    ["analyze", "torus-sup", "--grid", "3"],
    ["analyze", "perron", "--n", "2", "--R", "50", "--steps", "400"],
    ["analyze", "cauchy", "--grid", "3", "--n", "2"],
    ["op", "invert"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(_series_doc, st.sampled_from(_COMMANDS))
def test_fuzzed_series_file_exits_cleanly(fuzz_dir, doc, command):
    f = fuzz_dir / "doc.json"
    f.write_text(json.dumps(doc))
    out = fuzz_dir / "out.json"
    args = [*command[:2], str(f), *command[2:], "--out", str(out)]
    code = run(args)
    assert code in (0, 2, 3)
    if code == 0 and command[0] == "analyze":
        assert all(math.isfinite(x) for x in _numbers(read_json(out)))


def _numbers(doc):
    """Every number in a JSON document, booleans excluded."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []
