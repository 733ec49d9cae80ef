import csv
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
    apply_axis,
    emit_plot_data,
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


def test_threaded_sweep_matches_serial():
    spec = small_spec()
    assert rows_to_csv(run_sweep(spec, threads=4)) == rows_to_csv(run_sweep(spec, threads=1))


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


def test_plot_data_headers_and_round_trip(tmp_path):
    spec = small_spec(outputs=("poa_exact", "tr_opt"))
    rows = run_sweep(spec)
    files = emit_plot_data(spec, rows, tmp_path, stem="fig")
    names = {f.name for f in files}
    assert names == {"fig_poa_exact.dat", "fig_tr_opt.dat", "fig.gp"}
    poa_file = tmp_path / "fig_poa_exact.dat"
    lines = poa_file.read_text().splitlines()
    assert lines[0] == "axis_value poa_exact"
    parsed = [line.split(" ") for line in lines[1:]]
    assert [float(p[0]) for p in parsed] == [0.0, 0.25, 0.5, 1.0]
    for p, row in zip(parsed, rows):
        assert float(p[1]) == row["poa_exact"]
    # regeneration is byte-identical
    before = {f.name: f.read_bytes() for f in files}
    for f in emit_plot_data(spec, rows, tmp_path, stem="fig"):
        assert f.read_bytes() == before[f.name]


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


def test_cli_simulate_with_csv(inst_file, prof_file, tmp_path, capsys):
    links_csv = tmp_path / "links.csv"
    rc = cli.main(
        ["simulate", "--instance", inst_file, "--profile", prof_file,
         "--horizon", "2000", "--seed", "1", "--validate", "--out-csv", str(links_csv)]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["validation"]["passed"] is True
    header = links_csv.read_text().splitlines()[0]
    assert header == "link,offered,blocked,empirical_block_prob,std_err"


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
    rc = cli.main(["sweep", "--spec", spec, "--out", str(out_csv), "--plot-data", str(tmp_path / "p")])
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert (tmp_path / "p" / "sweep_poa_exact.dat").exists()


def test_cli_invalid_input_exit_code(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"m": 2})
    assert cli.main(["solve-opt", "--instance", bad]) == cli.EXIT_INVALID
    missing = str(tmp_path / "missing.json")
    assert cli.main(["poa", "--instance", missing]) == cli.EXIT_INVALID
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    assert cli.main(["poa", "--instance", str(notjson)]) == cli.EXIT_INVALID


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
    rc = cli.main(["solve-opt", "--instance", inst_file, "--oracle", "--oracle-cap", "3"])
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
                   "--horizon", "1000", "--validate", "--sigmas", sigmas])
    assert rc == cli.EXIT_INVALID
    assert "tolerance_sigmas" in capsys.readouterr().err


@pytest.mark.parametrize("sigmas", ["-1", "nan"])
def test_cli_simulate_rejects_bad_sigmas_before_simulating(
    inst_file, prof_file, capsys, monkeypatch, sigmas
):
    def no_simulation(cfg):
        raise AssertionError("simulate ran before --sigmas was checked")

    monkeypatch.setattr(cli.packet_sim, "simulate", no_simulation)
    rc = cli.main(["simulate", "--instance", inst_file, "--profile", prof_file,
                   "--horizon", "1e9", "--validate", "--sigmas", sigmas])
    assert rc == cli.EXIT_INVALID
    assert "tolerance_sigmas" in capsys.readouterr().err


def test_cli_enumerate_ne_rejects_negative_cap(inst_file, capsys):
    rc = cli.main(["enumerate-ne", "--instance", inst_file, "--cap", "-5"])
    assert rc == cli.EXIT_INVALID
    assert "cap must be non-negative" in capsys.readouterr().err


def test_cli_solve_opt_rejects_negative_oracle_cap(inst_file, capsys):
    rc = cli.main(["solve-opt", "--instance", inst_file, "--oracle", "--oracle-cap", "-1"])
    assert rc == cli.EXIT_INVALID
    assert "cap must be non-negative" in capsys.readouterr().err


def test_cli_poa_rejects_negative_cap_on_two_sources(inst_file, capsys):
    # Two sources take the scan_nash path, which enumerates no profile.
    rc = cli.main(["poa", "--instance", inst_file, "--cap", "-5"])
    assert rc == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "cap must be non-negative" in captured.err and captured.out == ""


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
