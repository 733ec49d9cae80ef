import csv
import hashlib
import io
import json

import pytest

import lossnet as ln
from lossnet import cli
from lossnet.errors import InvalidInputError
from lossnet.sweeps import (
    CSV_COLUMNS,
    NA,
    SweepSpec,
    _fmt,
    apply_axis,
    rows_to_csv,
    run_sweep,
    spec_from_json,
)


def small_spec(**kw):
    base = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    defaults = dict(base=base, axis="q", grid=(0.0, 0.25, 0.5, 1.0))
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    base = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        SweepSpec(base=base, axis="nope", grid=(0.1,))
    with pytest.raises(InvalidInputError):
        SweepSpec(base=base, axis="q", grid=())
    with pytest.raises(InvalidInputError):
        SweepSpec(base=base, axis="q", grid=(1.5,))
    with pytest.raises(InvalidInputError):
        SweepSpec(base=base, axis="n1", grid=(2.5,))
    with pytest.raises(InvalidInputError):
        SweepSpec(base=base, axis="q", grid=(0.5,), outputs=("bogus",))
    with pytest.raises(InvalidInputError, match="outputs must be non-empty"):
        SweepSpec(base=base, axis="q", grid=(0.5,), outputs=())


def test_apply_axis():
    base = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    assert apply_axis(base, "q", 0.9).q == 0.9
    assert apply_axis(base, "mu", 7.0).mu == 7.0
    assert apply_axis(base, "n1", 9).user_counts == (9, 2)


def test_rows_in_grid_order_with_expected_columns():
    rows = run_sweep(small_spec())
    assert [r["axis_value"] for r in rows] == [0.0, 0.25, 0.5, 1.0]
    for r in rows:
        assert set(r) == set(CSV_COLUMNS)
        assert r["ne_count"] >= 1
        assert r["poa_exact"] >= 1.0


def test_csv_is_deterministic_and_parseable():
    text1 = rows_to_csv(run_sweep(small_spec()))
    text2 = rows_to_csv(run_sweep(small_spec()))
    assert text1 == text2
    reader = csv.reader(io.StringIO(text1))
    header = next(reader)
    assert header == list(CSV_COLUMNS)
    for line in reader:
        assert len(line) == len(CSV_COLUMNS)
        # numeric cells round-trip exactly through repr
        if line[1] != NA:
            assert repr(float(line[1])) == line[1]
    with pytest.raises(InvalidInputError, match="booleans"):
        _fmt(True)


def test_na_markers_when_enumeration_is_infeasible():
    base = ln.Instance((8, 8, 8), 1.0, 1.0, 0.5)
    spec = SweepSpec(base=base, axis="q", grid=(0.2,))
    rows = run_sweep(spec, cap=10)
    assert rows[0]["tr_worst_ne"] == NA
    assert rows[0]["poa_exact"] == NA
    assert rows[0]["ne_count"] == NA
    assert rows[0]["tr_opt"] != NA  # optimum never needs enumeration
    text = rows_to_csv(rows)
    assert ",na," in text


def test_capacity_fallback_matches_enumerated_row():
    # z > 0, so the bound is defined; 3240 profiles, so cap=10 forces the fallback.
    base = ln.Instance((7, 4, 2), 1.0, 0.1, 0.1)
    assert ln.mixing_level(base) > 0 and ln.count_profiles(base) == 3240
    spec = SweepSpec(base=base, axis="q", grid=(0.1,))
    capped, full = run_sweep(spec, cap=10)[0], run_sweep(spec)[0]
    assert capped["ne_count"] == NA and full["ne_count"] != NA
    assert capped["tr_opt"] == full["tr_opt"]
    assert capped["poa_bound"] == full["poa_bound"] == ln.poa_bound(base)


def test_spec_json_parsing():
    obj = {
        "base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5},
        "axis": "q",
        "grid": [0.0, 1.0],
        "outputs": ["tr_opt"],
    }
    spec = spec_from_json(obj)
    assert spec.axis == "q" and spec.outputs == ("tr_opt",)
    with pytest.raises(InvalidInputError):
        spec_from_json({"axis": "q", "grid": [0.1]})
    with pytest.raises(InvalidInputError, match="sweep spec"):
        spec_from_json([obj])
    with pytest.raises(InvalidInputError, match="'grid'"):
        spec_from_json(dict(obj, grid=0.5))


@pytest.mark.parametrize("name, digest", [
    ("q_sweep", "f07486637da077014eb56b6a198cf69c3c457d100b912c43f84fbe6eb03a9c8b"),
    ("mu_sweep", "4991fae0ab065c9694dfc97029cf772090efa9297aeff36399733d688eb7a58f"),
    ("n1_sweep", "4264a61215dec8a02713b06e990cf4f656a23468f3e3db4c94ca1cf2c0750ac1"),
    ("n1_sweep_m3", "cd231df694cf197010bd405d28642fdb8f10cc7a4ddd561d0dd1bc5313b84e24"),
])
def test_figure_preset_csvs_are_frozen(name, digest):
    text = rows_to_csv(run_sweep(ln.figure_presets()[name]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _counting(monkeypatch):
    """Count `solve_optimal` calls, wherever a sweep row makes them."""
    calls = []

    def counted(inst):
        calls.append(inst)
        return ln.optimizer.solve_optimal(inst)

    for owner in (ln.sweeps, ln.equilibrium):
        monkeypatch.setattr(owner, "solve_optimal", counted)
    return calls


# (3, 2) solves; (10**160, 2) overflows the optimizer's gain test.
LATE_OVERFLOW = {"base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.3},
                 "axis": "n1", "grid": [3, 4, 10**160]}


@pytest.mark.parametrize("outputs", [None, ["tr_opt"], ["tr_worst_ne"], ["poa_exact"]])
def test_every_sweep_point_is_checked_before_the_first_row(monkeypatch, outputs):
    calls = _counting(monkeypatch)
    obj = dict(LATE_OVERFLOW, **({"outputs": outputs} if outputs else {}))
    with pytest.raises(InvalidInputError, match="gain test"):
        run_sweep(spec_from_json(obj))
    assert calls == []
    # A spec that needs no optimum runs every row.
    rows = run_sweep(spec_from_json(dict(LATE_OVERFLOW, outputs=["poa_bound"])))
    assert len(rows) == 3 and calls == []


def test_every_scan_is_checked_before_the_first_row(monkeypatch):
    calls = _counting(monkeypatch)
    spec = dict(LATE_OVERFLOW, grid=[3, 4, 2**50])
    with pytest.raises(InvalidInputError, match="2\\*\\*50"):
        run_sweep(spec_from_json(spec))
    assert calls == []
    assert len(run_sweep(spec_from_json(dict(spec, outputs=["tr_opt", "poa_bound"])))) == 3


def test_figure_presets_are_valid():
    presets = ln.figure_presets()
    assert set(presets) == {"q_sweep", "mu_sweep", "n1_sweep", "n1_sweep_m3"}
    q = presets["q_sweep"]
    assert len(q.grid) == 101 and q.grid[0] == 0.0 and q.grid[-1] == 1.0
    mu = presets["mu_sweep"]
    assert len(mu.grid) == 60
    assert mu.grid[0] == pytest.approx(1.0, rel=1e-4)
    assert mu.grid[-1] == pytest.approx(6000.0, rel=1e-3)
    n1 = presets["n1_sweep"]
    assert n1.grid[0] == 500 and n1.grid[-1] == 8000


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def inst_file(tmp_path):
    return write_json(
        tmp_path / "inst.json", {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5}
    )


@pytest.fixture()
def prof_file(tmp_path):
    return write_json(tmp_path / "prof.json", {"flow": [[3, 0], [0, 2]]})


def test_cli_solve_opt_with_oracle(inst_file, capsys):
    rc = cli.main(["solve-opt", "--instance", inst_file, "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["u"] == [3, 2] and out["v"] == [0, 0]
    assert out["oracle_tr"] == pytest.approx(out["tr"], rel=1e-12)


def test_cli_check_ne(inst_file, prof_file, capsys):
    rc = cli.main(["check-ne", "--instance", inst_file, "--profile", prof_file, "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["characterization"]["is_ne"] is True
    assert out["oracle"]["is_ne"] is True


def test_cli_check_ne_prints_plain_ints_and_floats(tmp_path, capsys):
    """No numpy scalar reaches the verdicts: an int64 would not serialize, and a
    float64 would change the reprs the frozen tests compare."""
    inst = ln.Instance((4, 1, 2), 1.0, 1.0, 0.2)
    flow = [[0, 4, 0], [1, 0, 0], [0, 1, 1]]
    inst_path = write_json(tmp_path / "i.json", ln.instance_to_json(inst))
    prof_path = write_json(tmp_path / "p.json", {"flow": flow})
    rc = cli.main(["check-ne", "--instance", inst_path, "--profile", prof_path, "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    prof = ln.RoutingProfile(flow)
    for key, decide in (("characterization", ln.is_nash_characterization),
                        ("oracle", ln.is_nash_deviation_oracle)):
        verdict = decide(inst, prof)
        assert type(verdict.i_star) is int and type(out[key]["i_star"]) is int
        assert out[key]["i_star"] == verdict.i_star
        assert verdict.violations and len(out[key]["violations"]) == len(verdict.violations)
        for got, want in zip(out[key]["violations"], verdict.violations):
            assert type(want.lhs) is float and type(want.rhs) is float
            assert type(got["lhs"]) is float and type(got["rhs"]) is float
            assert (got["lhs"], got["rhs"]) == (want.lhs, want.rhs)


def test_cli_counts_beyond_float_arithmetic_exit_code(tmp_path, prof_file, capsys):
    inst = write_json(tmp_path / "big.json",
                      {"m": 2, "n": [10**400, 2], "phi": 1.0, "mu": 1.0, "q": 0.5})
    assert cli.main(["check-ne", "--instance", inst, "--profile", prof_file]) == cli.EXIT_INVALID
    assert "float" in capsys.readouterr().err


@pytest.mark.parametrize("command, counts, phi, mu", [
    ("poa", [3, 2], 1e308, 1e308),
    ("poa", [3, 2], 1e-308, 1e308),
    ("solve-opt", [12 * 10**153, 12 * 10**152], 1.0, 1.2e154),
    ("solve-opt", [10**155, 10**154], 1.0, 1e155),
])
def test_cli_products_beyond_float_arithmetic_exit_code(tmp_path, capsys, command, counts,
                                                        phi, mu):
    # Unchecked, these print NaN or Infinity, or a wrong optimum, and exit 0.
    inst = write_json(tmp_path / "big.json",
                      {"m": 2, "n": counts, "phi": phi, "mu": mu, "q": 0.3})
    assert cli.main([command, "--instance", inst]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows the float" in captured.err


def test_cli_enumerate_ne_to_csv(inst_file, tmp_path, capsys):
    out_csv = tmp_path / "ne.csv"
    rc = cli.main(
        ["enumerate-ne", "--instance", inst_file, "--cap", "1000", "--out", str(out_csv)]
    )
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "flow,u,v,tr"
    assert lines[1].startswith("3 0 0 2,3 2,0 0,")


def test_cli_poa(inst_file, capsys):
    rc = cli.main(["poa", "--instance", inst_file])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["poa_exact"] == pytest.approx(1.0)
    assert out["poa_bound"] is None


def test_cli_dynamics(inst_file, tmp_path, capsys):
    start = write_json(tmp_path / "start.json", {"flow": [[0, 3], [2, 0]]})
    rc = cli.main(
        ["dynamics", "--instance", inst_file, "--start", start, "--seed", "3",
         "--max-rounds", "100"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "converged"
    assert out["flow"] == [[3, 0], [0, 2]]


def test_cli_dynamics_budget_exhausted(inst_file, tmp_path, capsys):
    start = write_json(tmp_path / "start.json", {"flow": [[0, 3], [2, 0]]})
    rc = cli.main(["dynamics", "--instance", inst_file, "--start", start, "--max-rounds", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"flow": [[1, 2], [1, 1]], "rounds": 1, "outcome": "budget-exhausted"}


def test_cli_two_source(inst_file, capsys):
    rc = cli.main(["two-source", "--instance", inst_file, "scan"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ne_states"] == [{"u1": 3, "u2": 2}]
    rc = cli.main(
        ["two-source", "--instance", inst_file, "classify", "--u1", "3", "--u2", "2"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "4" and out["is_ne"] is True


def test_cli_two_source_existence_and_corollaries_match_the_library(tmp_path, capsys):
    inst = ln.Instance((5, 2), 1.0, 1.0, 0.0)
    inst_path = write_json(tmp_path / "i.json", ln.instance_to_json(inst))
    assert cli.main(["two-source", "--instance", inst_path, "existence"]) == 0
    state = ln.construct_existence_ne(inst)
    assert json.loads(capsys.readouterr().out) == {"u1": state.u1, "u2": state.u2}
    assert cli.main(["two-source", "--instance", inst_path, "corollaries"]) == 0
    assert json.loads(capsys.readouterr().out) == ln.check_corollaries(inst)


def test_cli_enumerate_ne_to_stdout_matches_the_library(tmp_path, capsys):
    inst = ln.Instance((3, 2, 2), 1.0, 1.0, 0.2)
    inst_path = write_json(tmp_path / "i.json", ln.instance_to_json(inst))
    assert cli.main(["enumerate-ne", "--instance", inst_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    nes = ln.enumerate_nash(inst)
    assert lines[0] == "flow,u,v,tr" and len(lines) == len(nes) + 1 > 2
    for line, (prof, summary) in zip(lines[1:], nes):
        flat, u, v, tr = line.split(",")
        assert [int(x) for x in flat.split()] == [x for row in prof.flow for x in row]
        assert [int(x) for x in u.split()] == list(prof.u())
        assert [int(x) for x in v.split()] == list(prof.v())
        assert float(tr) == summary.total_traffic


def test_cli_simulate_with_csv(inst_file, prof_file, capsys):
    rc = cli.main(
        ["simulate", "--instance", inst_file, "--profile", prof_file,
         "--horizon", "2000", "--seed", "1", "--validate"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["validation"]["passed"] is True
    assert out["per_link"] and all(
        list(entry) == ["link", "offered", "blocked", "empirical_block_prob", "std_err"]
        for entry in out["per_link"]
    )


def test_cli_sweep(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {
            "base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5},
            "axis": "q",
            "grid": [0.0, 0.5, 1.0],
        },
    )
    out_csv = tmp_path / "data.csv"
    rc = cli.main(["sweep", "--spec", spec, "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_invalid_input_exit_code(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"m": 2})
    assert cli.main(["solve-opt", "--instance", bad]) == cli.EXIT_INVALID
    missing = str(tmp_path / "missing.json")
    assert cli.main(["poa", "--instance", missing]) == cli.EXIT_INVALID
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    assert cli.main(["poa", "--instance", str(notjson)]) == cli.EXIT_INVALID
    good = write_json(tmp_path / "good.json", {"m": 2, "n": [3, 2], "phi": 1, "mu": 1, "q": 0})
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["two-source", "--instance", good, "classify", "--u1", "1"])
    assert exc.value.code == cli.EXIT_INVALID
    assert "--u2" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.mkdir()
    assert cli.main(["enumerate-ne", "--instance", good, "--out", str(taken)]) == cli.EXIT_INVALID
    assert f"cannot write {taken}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"axis": "mu", "grid": ["abc"]},
        {"grid": [None]},
        {"grid": ["0.3"]},
        {"grid": [True]},
        {"outputs": 5},
        {"outputs": ["tr_opt", 1]},
    ],
)
def test_cli_sweep_malformed_spec_exit_code(tmp_path, capsys, change):
    spec = {"base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5}, "axis": "q",
            "grid": [0.5], **change}
    out_csv = tmp_path / "data.csv"
    rc = cli.main(["sweep", "--spec", write_json(tmp_path / "spec.json", spec),
                   "--out", str(out_csv)])
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "grid" in err or "outputs" in err
    assert not out_csv.exists()


def test_cli_non_utf8_json_exit_code(tmp_path, inst_file):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"m": 1, "n": [1], "phi": 1.0, "mu": 1.0, "q": 0.5, "é": 0}'
                       .encode("latin-1"))
    bad = str(latin1)
    for argv in (
        ["solve-opt", "--instance", bad],
        ["poa", "--instance", bad],
        ["check-ne", "--instance", inst_file, "--profile", bad],
        ["sweep", "--spec", bad, "--out", str(tmp_path / "data.csv")],
    ):
        assert cli.main(argv) == cli.EXIT_INVALID, argv


def test_cli_capacity_exit_code(tmp_path):
    inst = write_json(
        tmp_path / "big.json", {"m": 3, "n": [9, 9, 9], "phi": 1.0, "mu": 1.0, "q": 0.5}
    )
    assert cli.main(["enumerate-ne", "--instance", inst, "--cap", "10"]) == cli.EXIT_CAPACITY


def test_cli_profile_row_sum_mismatch(inst_file, tmp_path):
    bad_prof = write_json(tmp_path / "badprof.json", {"flow": [[2, 0], [0, 2]]})
    assert (
        cli.main(["check-ne", "--instance", inst_file, "--profile", bad_prof])
        == cli.EXIT_INVALID
    )


def test_cli_solve_opt_oracle_skipped_over_cap(inst_file, capsys):
    rc = cli.main(["solve-opt", "--instance", inst_file, "--oracle", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_tr"] is None


def test_cli_internal_check_exit_code(inst_file, prof_file, monkeypatch, capsys):
    import lossnet.equilibrium as eq

    true_verdict = eq.is_nash_characterization
    monkeypatch.setattr(
        cli.equilibrium,
        "is_nash_deviation_oracle",
        lambda inst, prof: eq.NEVerdict(
            not true_verdict(inst, prof).is_ne, 0, ()
        ),
    )
    rc = cli.main(["check-ne", "--instance", inst_file, "--profile", prof_file, "--oracle"])
    assert rc == cli.EXIT_INTERNAL


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_cli_dynamics_rejects_nonpositive_max_rounds(inst_file, tmp_path, capsys, rounds):
    start = write_json(tmp_path / "start.json", {"flow": [[3, 0], [0, 2]]})
    rc = cli.main(["dynamics", "--instance", inst_file, "--start", start,
                   "--max-rounds", rounds])
    assert rc == cli.EXIT_INVALID
    assert "max_rounds" in capsys.readouterr().err


def test_cli_dynamics_rejects_a_negative_seed(tmp_path, capsys):
    # random.Random seeds with |seed|, so --seed -7 used to replay --seed 7.
    inst = write_json(tmp_path / "inst.json", {"m": 3, "n": [6, 5, 4], "phi": 1, "mu": 1, "q": 0.5})
    start = write_json(tmp_path / "start.json", {"flow": [[0, 3, 3], [2, 1, 2], [1, 1, 2]]})
    rc = cli.main(["dynamics", "--instance", inst, "--start", start, "--seed", "-7"])
    assert rc == cli.EXIT_INVALID
    assert "seed" in capsys.readouterr().err


def test_horizon_overflowing_the_packet_count_is_invalid_input(inst_file, prof_file, capsys):
    # 1e308 time units at 5 packets per unit is no finite packet count.
    rc = cli.main(["simulate", "--instance", inst_file, "--profile", prof_file,
                   "--horizon", "1e308"])
    assert rc == cli.EXIT_INVALID
    assert "horizon" in capsys.readouterr().err
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match="horizon"):
        ln.SimConfig(inst, ln.RoutingProfile.all_direct(inst), 1e308, 0)


@pytest.mark.parametrize("sigmas", ["-1", "nan"])
def test_cli_simulate_rejects_bad_sigmas(inst_file, prof_file, capsys, sigmas):
    rc = cli.main(["simulate", "--instance", inst_file, "--profile", prof_file,
                   "--horizon", "1000", "--validate", sigmas])
    assert rc == cli.EXIT_INVALID
    assert "tolerance_sigmas" in capsys.readouterr().err


@pytest.mark.parametrize("sigmas", ["-1", "nan"])
def test_cli_simulate_rejects_bad_sigmas_before_simulating(
    inst_file, prof_file, capsys, monkeypatch, sigmas
):
    def no_simulation(cfg):
        raise AssertionError("simulate ran before SIGMAS was checked")

    monkeypatch.setattr(cli.packet_sim, "simulate", no_simulation)
    rc = cli.main(["simulate", "--instance", inst_file, "--profile", prof_file,
                   "--horizon", "1e9", "--validate", sigmas])
    assert rc == cli.EXIT_INVALID
    assert "tolerance_sigmas" in capsys.readouterr().err


def test_cli_enumerate_ne_rejects_negative_cap(inst_file, capsys):
    rc = cli.main(["enumerate-ne", "--instance", inst_file, "--cap", "-5"])
    assert rc == cli.EXIT_INVALID
    assert "cap must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [["--oracle", "-1"]], ids=["oracle"])
def test_cli_solve_opt_rejects_negative_oracle_cap(inst_file, capsys, monkeypatch, oracle):
    def no_work(*args, **kwargs):
        raise AssertionError("solve_optimal ran before CAP was checked")

    monkeypatch.setattr(cli.optimizer, "solve_optimal", no_work)
    rc = cli.main(["solve-opt", "--instance", inst_file, *oracle])
    assert rc == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "cap must be non-negative" in captured.err and captured.out == ""


def test_cli_poa_rejects_negative_cap_on_two_sources(inst_file, capsys):
    # Two sources take the scan_nash path, which enumerates no profile.
    rc = cli.main(["poa", "--instance", inst_file, "--cap", "-5"])
    assert rc == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "cap must be non-negative" in captured.err and captured.out == ""


def test_cli_sweep_overflowing_a_late_grid_point_writes_nothing(tmp_path, capsys, monkeypatch):
    calls = _counting(monkeypatch)
    spec = write_json(tmp_path / "spec.json", LATE_OVERFLOW)
    out_csv = tmp_path / "data.csv"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out_csv)]) == cli.EXIT_INVALID
    assert "gain test" in capsys.readouterr().err
    assert calls == [] and not out_csv.exists()


def test_cli_sweep_rejects_negative_cap_on_two_sources(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {"base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5},
         "axis": "q", "grid": [0.0, 0.5]},
    )
    out_csv = tmp_path / "data.csv"
    rc = cli.main(["sweep", "--spec", spec, "--cap", "-5", "--out", str(out_csv)])
    assert rc == cli.EXIT_INVALID
    assert "cap must be non-negative" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["enumerate-ne", "sweep"])
def test_cli_unwritable_output_path_is_invalid_input(inst_file, tmp_path, capsys, command):
    spec = write_json(
        tmp_path / "spec.json",
        {"base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5},
         "axis": "q", "grid": [0.5]},
    )
    nowhere = str(tmp_path / "no-such-dir" / "x.csv")
    argv = {
        "enumerate-ne": ["enumerate-ne", "--instance", inst_file, "--out", nowhere],
        "sweep": ["sweep", "--spec", spec, "--out", nowhere],
    }[command]
    assert cli.main(argv) == cli.EXIT_INVALID
    assert f"cannot write {nowhere}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["enumerate-ne", "sweep", "enumerate-ne-dir", "sweep-dir", "enumerate-ne-empty",
                "sweep-empty"]
)
def test_cli_missing_output_directory_fails_before_any_work(
    inst_file, tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    for owner, name in ((cli.equilibrium, "enumerate_nash"), (cli.sweeps, "run_sweep")):
        monkeypatch.setattr(owner, name, no_work)
    spec = write_json(
        tmp_path / "spec.json",
        {"base": {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5},
         "axis": "q", "grid": [0.5]},
    )
    nowhere = str(tmp_path / "no-such-dir" / "x.csv")
    (tmp_path / "out").mkdir()
    a_dir = str(tmp_path / "out")  # exists, and cannot be written as a file
    argv, path = {
        "enumerate-ne": (["enumerate-ne", "--instance", inst_file, "--out", nowhere], nowhere),
        "sweep": (["sweep", "--spec", spec, "--out", nowhere], nowhere),
        "enumerate-ne-dir": (["enumerate-ne", "--instance", inst_file, "--out", a_dir], a_dir),
        "sweep-dir": (["sweep", "--spec", spec, "--out", a_dir], a_dir),
        # "" names the current directory; leaving out --out is how to ask for stdout
        "enumerate-ne-empty": (["enumerate-ne", "--instance", inst_file, "--out", ""], ""),
        "sweep-empty": (["sweep", "--spec", spec, "--out", ""], ""),
    }[command]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert f"cannot write {path}" in captured.err and captured.out == ""


BASE = {"m": 2, "n": [3, 2], "phi": 1.0, "mu": 1.0, "q": 0.5}


@pytest.mark.parametrize(
    "command, option",
    [("sweep", ["--threads", "1"]), ("sweep", ["--plot-data", "plots"]),
     ("simulate", ["--out-csv", "links.csv"]), ("solve-opt", ["--oracle-cap", "3"]),
     ("simulate", ["--sigmas", "3"]), ("scan", ["--u1", "1"]), ("existence", ["--u2", "1"]),
     ("corollaries", ["--u1", "1"])],
    ids=["sweep-threads", "sweep-plot-data", "simulate-out-csv", "solve-opt-oracle-cap",
         "simulate-sigmas", "two-source-scan-u1", "two-source-existence-u2",
         "two-source-corollaries-u1"],
)
def test_cli_deleted_options_are_rejected(inst_file, prof_file, tmp_path, capsys, monkeypatch,
                                          command, option):
    monkeypatch.chdir(tmp_path)
    spec = write_json(tmp_path / "spec.json", {"base": BASE, "axis": "q", "grid": [0.0, 0.5]})
    argv = {
        "sweep": ["sweep", "--spec", spec, "--out", "data.csv"],
        "simulate": ["simulate", "--instance", inst_file, "--profile", prof_file,
                     "--horizon", "100"],
        "solve-opt": ["solve-opt", "--instance", inst_file],
        **{action: ["two-source", "--instance", inst_file, action]
           for action in ("scan", "existence", "corollaries")},
    }[command]
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *option])
    assert exc.value.code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize("where, extra, message", [
    ("instance", {"colour": 1}, "unknown field 'colour' in instance"),
    ("profile", {"colour": 1}, "unknown field 'colour' in profile"),
    ("spec", {"output": ["tr_opt"]}, "unknown field 'output' in sweep spec"),
    ("spec-base", {"colour": 1}, "sweep spec field 'base': unknown field 'colour' in instance"),
    ("spec-base", {"q": "0.3"}, "sweep spec field 'base': field 'q' must be a real number"),
], ids=["instance-colour", "profile-colour", "spec-output", "spec-base-colour", "spec-base-q"])
def test_cli_unknown_json_field_is_invalid_input(inst_file, prof_file, tmp_path, capsys,
                                                 monkeypatch, where, extra, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the unknown field was rejected")

    for owner, name in ((cli.equilibrium, "poa_report"),
                        (cli.equilibrium, "is_nash_characterization"), (cli.sweeps, "run_sweep")):
        monkeypatch.setattr(owner, name, no_work)
    spec = {"base": BASE, "axis": "q", "grid": [0.5]}
    out_csv = tmp_path / "data.csv"
    argv = {
        "instance": ["poa", "--instance", write_json(tmp_path / "i.json", {**BASE, **extra})],
        "profile": ["check-ne", "--instance", inst_file, "--profile",
                    write_json(tmp_path / "p.json", {"flow": [[3, 0], [0, 2]], **extra})],
        "spec": ["sweep", "--spec", write_json(tmp_path / "s.json", {**spec, **extra}),
                 "--out", str(out_csv)],
        "spec-base": ["sweep", "--spec", write_json(tmp_path / "b.json",
                                                    {**spec, "base": {**BASE, **extra}}),
                      "--out", str(out_csv)],
    }[where]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out_csv.exists()


def test_cli_instance_number_beyond_the_float_range_is_invalid_input(tmp_path, capsys):
    # 10**400 parses as an int that float() cannot hold (1e400 parses as inf).
    inst = write_json(tmp_path / "inst.json", {**BASE, "phi": 10**400})
    assert cli.main(["poa", "--instance", inst]) == cli.EXIT_INVALID
    assert "field 'phi' is too large for a float" in capsys.readouterr().err


def test_cli_sweep_grid_number_beyond_the_float_range_is_invalid_input(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"base": BASE, "axis": "mu", "grid": [1.0, 10**400]})
    out_csv = tmp_path / "data.csv"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out_csv)]) == cli.EXIT_INVALID
    assert "field 'grid' is too large for a float" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" + "0" * 5000],
                         ids=["deep-nesting", "5001-digit-int"])
def test_cli_json_beyond_the_decoder_limits_is_invalid_input(tmp_path, capsys, text):
    # Deep nesting exhausts the decoder's recursion; a 5001-digit int exceeds
    # Python's digit limit for int conversion.
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["poa", "--instance", str(path)]) == cli.EXIT_INVALID
    assert f"{path} is not valid JSON" in capsys.readouterr().err
