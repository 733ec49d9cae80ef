import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lossnet as ln
from lossnet import cli
from lossnet.errors import InvalidInputError
from lossnet.model import TOLERANCE
from lossnet.two_source import MAX_COUNT, ROW_BLOCK, TwoSourceState, _is_ne, _threshold

from conftest import cross_check_state, instance_json, paper_thresholds


def rand_two_source(rng, n_max=15):
    n1 = rng.randint(1, n_max)
    n2 = rng.randint(1, n1)
    q = rng.choice([0.0, 1.0, rng.random(), rng.random(), rng.random()])
    mu = rng.choice([0.5, 1.0, 3.0, 10.0])
    return ln.Instance((n1, n2), 1.0, mu, q)


def thresholds(inst, u1, u2):
    """`classify`'s (t1_at_u2, t2_at_u1) at the state (u1, u2), the same in both
    source orders and equal to `paper_thresholds` up to rounding.

    The reference reads q as its decimal, which can lie half an ulp from the
    float q; qb = 1 - q carries that error, relative 2**-53 / qb, into both.
    """
    verdict = ln.classify(inst, TwoSourceState(u1, u2))
    mirror = ln.Instance(inst.user_counts[::-1], inst.phi, inst.mu, inst.q)
    back = ln.classify(mirror, TwoSourceState(u2, u1))
    got = verdict.t1_at_u2, verdict.t2_at_u1
    assert (back.t2_at_u1, back.t1_at_u2) == got, (inst, u1, u2)
    rel = 1e-12 + 2**-51 / inst.qbar
    assert got == pytest.approx(tuple(map(float, paper_thresholds(inst, u1, u2))), rel=rel), (
        inst, u1, u2)
    return got


def test_threshold_values():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    assert paper_thresholds(inst, 3, 2) == (Fraction(9, 2), 5)
    assert thresholds(inst, 3, 2) == pytest.approx((4.5, 5.0), abs=1e-12)
    big = ln.Instance((100, 1), 1.0, 1.0, 0.1)
    assert paper_thresholds(big, 0, 1)[0] == Fraction(92) / Fraction("1.8")
    assert thresholds(big, 0, 1)[0] == pytest.approx(92.0 / 1.8, rel=1e-12)


def test_threshold_q0_symmetric_counts():
    inst = ln.Instance((6, 6), 1.0, 1.0, 0.0)
    for u2 in range(7):
        assert paper_thresholds(inst, 0, u2)[0] == u2 + Fraction(1, 2)
        assert thresholds(inst, 0, u2)[0] == pytest.approx(u2 + 0.5, abs=1e-12)
    # with equal counts the two thresholds are the same function
    for u in range(7):
        t1, t2 = thresholds(inst, u, u)
        assert t1 == pytest.approx(t2, abs=1e-12)


def test_threshold_undefined_at_q1():
    # The thresholds divide by 2 * (1 - q); classify reports them as None.
    for counts in ((3, 2), (2, 3)):
        inst = ln.Instance(counts, 1.0, 1.0, 1.0)
        assert paper_thresholds(inst, 0, 0) is None
        for u1 in range(counts[0] + 1):
            for u2 in range(counts[1] + 1):
                verdict = ln.classify(inst, TwoSourceState(u1, u2))
                assert verdict.t1_at_u2 is None and verdict.t2_at_u1 is None


def test_all_direct_region_condition_matches_threshold_at_boundary():
    # u1 <= t1(n2) evaluated at u1 = n1 is algebraically the same test as
    # n1 qbar <= q mu / phi + n2 + qbar.
    rng = random.Random(51)
    for _ in range(100):
        n1 = rng.randint(1, 30)
        n2 = rng.randint(1, n1)
        q = rng.uniform(0.0, 0.999)
        mu = rng.uniform(0.1, 20.0)
        inst = ln.Instance((n1, n2), 1.0, mu, q)
        lhs = n1 <= thresholds(inst, n1, n2)[0] + 1e-12
        rhs = n1 * inst.qbar <= q * mu / inst.phi + n2 + inst.qbar + 1e-12
        assert lhs == rhs
        exact = paper_thresholds(inst, n1, n2)[0]
        qb, qm = 1 - Fraction(str(q)), Fraction(str(q)) * Fraction(str(mu))
        assert (n1 <= exact) == (n1 * qb <= qm + n2 + qb)


def test_classify_frozen_examples():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    v = ln.classify(inst, TwoSourceState(3, 2))
    assert v.case_id == "4" and v.is_ne
    v = ln.classify(inst, TwoSourceState(3, 1))
    assert v.case_id == "1a" and not v.is_ne
    v = ln.classify(inst, TwoSourceState(0, 2))
    assert v.case_id == "1b" and not v.is_ne


def test_case_partition_exhaustive_and_exclusive():
    inst = ln.Instance((4, 3), 1.0, 1.0, 0.3)
    n1, n2 = inst.user_counts
    seen = {}
    for u1 in range(n1 + 1):
        for u2 in range(n2 + 1):
            case = ln.classify(inst, TwoSourceState(u1, u2)).case_id
            seen[(u1, u2)] = case
            if u1 == n1 and u2 == n2:
                assert case == "4"
            elif u1 == n1:
                assert case == "1a"
            elif u1 == 0 and u2 > 0:
                assert case == "1b"
            elif u2 == n2 and u1 > 0:
                assert case == "3"
            else:
                assert case == "2"
    assert len(seen) == (n1 + 1) * (n2 + 1)


def test_classify_agrees_with_general_checkers_on_grids():
    rng = random.Random(53)
    for _ in range(15):
        inst = rand_two_source(rng, n_max=9)
        n1, n2 = inst.user_counts
        for u1 in range(n1 + 1):
            for u2 in range(n2 + 1):
                assert cross_check_state(inst, TwoSourceState(u1, u2)), (
                    inst, u1, u2,
                )


def test_classify_handles_unsorted_instances():
    inst = ln.Instance((2, 6), 1.0, 1.0, 0.4)
    for u1 in range(3):
        for u2 in range(7):
            assert cross_check_state(inst, TwoSourceState(u1, u2))
    states = ln.scan_nash(inst)
    assert states  # existence carries over after relabeling


def test_scan_unique_all_direct():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    assert ln.scan_nash(inst) == [TwoSourceState(3, 2)]


def test_scan_matches_classify_gridwise():
    rng = random.Random(59)
    for _ in range(15):
        inst = rand_two_source(rng, n_max=10)
        n1, n2 = inst.user_counts
        grid = sorted(
            (u1, u2)
            for u1 in range(n1 + 1)
            for u2 in range(n2 + 1)
            if ln.classify(inst, TwoSourceState(u1, u2)).is_ne
        )
        assert [(s.u1, s.u2) for s in ln.scan_nash(inst)] == grid


def grid_scans(inst, ne=_is_ne):
    """Reference scans of `inst` in both source orders, as (ordered instance, states).

    `ne` is broadcast once over the whole (n1+1) x (n2+1) grid of the sorted
    instance, which both orders share; each order maps its cells back.
    """
    canon, _ = inst.canonicalized()
    n1, n2 = canon.user_counts
    cells = np.argwhere(ne(canon, np.arange(n1 + 1)[:, None], np.arange(n2 + 1)[None, :]))
    for counts in ((n1, n2), (n2, n1)):
        ordered = ln.Instance(counts, inst.phi, inst.mu, inst.q)
        states = cells[:, list(ordered.canonicalized()[1])].tolist()
        yield ordered, [TwoSourceState(a, b) for a, b in sorted(states)]


def region_table_ne(canon, a1, a2):
    """The paper's region table at (a1, a2) of a sorted instance, on ints or arrays.

    An independent reference for `_is_ne`, which evaluates the general
    conditions (i) and (ii) instead; the regions are those of the
    `two_source` module docstring, with a slack of TOLERANCE in units of u1.
    """
    n1, n2 = canon.user_counts
    if canon.q == 1.0:
        # Every other state relays a user, who always gains by going direct.
        return (a1 == n1) & (a2 == n2)
    qb = canon.qbar
    qm = canon.q * canon.mu / canon.phi
    th1 = _threshold(canon, n1, n2, a2)
    th2 = _threshold(canon, n2, n1, a1)
    # Regions 2 and 3 share u1 < n1, u1 >= t1 - 1 and the exclusion of 1b.
    ne = a1 >= th1 - 1.0 - TOLERANCE
    ne &= a1 < n1
    ne &= (a1 > 0) | (a2 == 0)
    # Region 3 (the row u2 = n2) caps u1 at t1; region 2 needs u2 >= t2 - 1.
    side = a1 <= th1 + TOLERANCE
    side &= a2 == n2
    side |= (a2 >= th2 - 1.0 - TOLERANCE) & (a2 < n2)
    ne &= side
    ne |= (a1 == n1) & ((a2 == n2) & (n1 * qb <= qm + n2 + qb + TOLERANCE))  # region 4
    return ne


def random_instances():
    rng = random.Random(83)
    for _ in range(300):
        n1 = rng.randint(1, 60)
        n2 = rng.randint(1, n1)
        # q = 1e-15 moves the q = 0 ties by less than the tolerance.
        q = rng.choice([0.0, 1e-15, 0.3, 0.7, 1.0 - 1e-13, rng.random()])
        phi = rng.choice([1.0, rng.uniform(0.1, 3.0)])
        mu = rng.choice([0.5, 1.0, 10.0, 300.0, rng.uniform(0.01, 50.0)])
        yield ln.Instance((n1, n2), phi, mu, q)


def exact_tie_instances():
    # At q = 0 and an odd n1 - n2 every region-2 boundary falls on an
    # integer, so each interval end is decided by the tolerance.
    for n1 in range(1, 41):
        for n2 in range(1, n1 + 1):
            yield ln.Instance((n1, n2), 1.0, 1.0, 0.0)


def figure_preset_instances():
    for spec in ln.figure_presets().values():
        for value in spec.grid:
            inst = ln.sweeps.apply_axis(spec.base, spec.axis, value)
            if inst.m == 2:
                yield inst


@pytest.mark.parametrize("instances", [
    random_instances, exact_tie_instances, figure_preset_instances,
])
def test_scan_equals_grid_reference(instances):
    for inst in instances():
        for ordered, reference in grid_scans(inst):
            assert repr(ln.scan_nash(ordered)) == repr(reference), ordered


@pytest.mark.parametrize("instances", [
    random_instances, exact_tie_instances, figure_preset_instances,
])
def test_scan_equals_region_table(instances):
    for inst in instances():
        for ordered, reference in grid_scans(inst, region_table_ne):
            assert repr(ln.scan_nash(ordered)) == repr(reference), ordered


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    counts=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    phi=st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
    mu=st.one_of(st.sampled_from([0.5, 1.0, 10.0, 300.0]), st.floats(0.01, 1e4)),
    q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_scan_is_the_grid_filter_of_the_predicate(counts, phi, mu, q):
    inst = ln.Instance(counts, phi, mu, q)
    assert ln.scan_nash(inst) == dict(grid_scans(inst))[inst]


@pytest.mark.parametrize("counts, mu, q", [
    ((10**6, 10**5), 10.0, 0.3),
    ((10**5, 10**6), 10.0, 0.3),
    # q = 0 near-tie: every region-2 boundary is an integer, about 2500 states.
    ((10**6, 1249), 1.0, 0.0),
    ((1249, 10**6), 1.0, 0.0),
])
def test_scan_and_poa_at_heavy_traffic(counts, mu, q):
    # A grid here would hold 1e8 to 1e11 cells; the row scan is O(n1).
    inst = ln.Instance(counts, 1.0, mu, q)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        states = ln.scan_nash(inst)
        scan_s = time.perf_counter() - start
        scan_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        report = ln.poa_report(inst)
        poa_s = time.perf_counter() - start
        poa_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan_s < 1.0 and scan_peak < 64e6
    # poa_report adds solve_optimal, whose memory does not grow with the
    # user counts, and one traffic value per state to the scan.
    assert poa_s < 2.0 and poa_peak < scan_peak + 1e6
    assert states == sorted(states, key=lambda s: (s.u1, s.u2))
    assert report.ne_count == len(states)
    assert report.tr_worst_ne == min(ln.total_traffic(inst, s.expand(inst)) for s in states)
    found = {(s.u1, s.u2) for s in states}
    n1, n2 = counts
    for u1, u2 in found:
        assert ln.classify(inst, TwoSourceState(u1, u2)).is_ne
        # One step past the end of each interval, along either axis.
        for v1, v2 in ((u1 - 1, u2), (u1 + 1, u2), (u1, u2 - 1), (u1, u2 + 1)):
            if 0 <= v1 <= n1 and 0 <= v2 <= n2 and (v1, v2) not in found:
                assert not ln.classify(inst, TwoSourceState(v1, v2)).is_ne, (v1, v2)


def test_scan_memory_follows_the_rows_that_can_hold_an_equilibrium():
    # No interior row of this instance can hold an equilibrium, and region 3
    # is a few cells of the column u2 = n2: a scan of every row, or of the
    # whole column, takes hundreds of megabytes here.
    inst = ln.Instance((10**7, 10**6), 1.0, 10.0, 0.3)
    tracemalloc.start()
    try:
        states = ln.scan_nash(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert states == [TwoSourceState(5714288, 10**6)]
    for v1 in (5714287, 5714289):
        assert not ln.classify(inst, TwoSourceState(v1, 10**6)).is_ne


def test_scan_decides_two_million_equilibria_in_blocks_of_rows():
    # A q = 0 near-tie: about two equilibria in each of 10**6 interior rows.
    # Rows are decided ROW_BLOCK at a time, so the peak is the three int64
    # interval arrays (23 MiB) and one block's temporaries; one pass over
    # every row peaked at 182 MiB.
    inst = ln.Instance((10**6, 10**6 - 1), 1.0, 1.0, 0.0)
    tracemalloc.start()
    try:
        states = ln.scan_nash(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert len(states) == 2 * 10**6


def test_scan_in_few_row_blocks_gives_the_same_intervals(monkeypatch):
    corpus = [*random_instances(), *exact_tie_instances(), *figure_preset_instances(),
              ln.Instance((10**3, 10**3 - 1), 1.0, 1.0, 0.0)]
    # The figures sweeps scan one block of rows each.
    assert max(max(inst.user_counts) for inst in figure_preset_instances()) < ROW_BLOCK
    want = [ln.scan_nash(inst) for inst in corpus]
    monkeypatch.setattr(ln.two_source, "ROW_BLOCK", 3)
    for inst, w in zip(corpus, want):
        got = ln.scan_nash(inst)
        assert len(got) == len(w) and got == w, inst
        assert repr(got.worst_traffic()) == repr(w.worst_traffic()), inst


@pytest.mark.parametrize("n1, qb, count", [(10**12, 3e-12, 335), (10**10, 3e-10, 5)])
def test_scan_keeps_every_cell_the_predicate_admits_near_q1(n1, qb, count):
    # With qb near 1/n1, region 3 lies inside the column u2 = n2, and the
    # conditions' slack of TOLERANCE in load units spans TOLERANCE / (2 qb)
    # cells of it: 167 each way at n1 = 1e12, so a window of a few cells
    # around t1(n2) would miss most of them.
    inst = ln.Instance((n1, 1), 1.0, 1.0, 1.0 - qb)
    u1 = math.floor(thresholds(inst, n1, 1)[0]) + np.arange(-1000, 1001)
    admitted = u1[_is_ne(inst, u1, 1)].tolist()
    assert [(s.u1, s.u2) for s in ln.scan_nash(inst)] == [(a, 1) for a in admitted]
    mirror = ln.Instance((1, n1), 1.0, 1.0, 1.0 - qb)
    assert [(s.u2, s.u1) for s in ln.scan_nash(mirror)] == [(a, 1) for a in admitted]
    assert len(admitted) == count


def _cli_in_a_small_address_space(tmp_path, counts, mu, q, argv):
    """Run `lossnet` on two sources with phi = 1 in a child limited to 1 GiB of
    address space and one BLAS thread."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"m": 2, "n": list(counts), "phi": 1.0, "mu": mu, "q": q}))
    src = str(Path(ln.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "lossnet.cli", argv[0], "--instance", str(inst),
                           *argv[1:]],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120)


def test_cli_scan_and_poa_at_heavy_traffic_in_a_small_address_space(tmp_path):
    big = ((10**8, 10**7), 10.0, 0.3)
    scan = _cli_in_a_small_address_space(tmp_path, *big, ["two-source", "scan"])
    assert scan.returncode == 0, scan.stderr
    assert json.loads(scan.stdout) == {
        "ne_states": [{"u1": 57142859, "u2": 10**7}], "count": 1}
    poa = _cli_in_a_small_address_space(tmp_path, *big, ["poa"])
    assert poa.returncode == 0, poa.stderr
    assert json.loads(poa.stdout)["ne_count"] == 1


def test_cli_poa_counts_two_million_equilibria_in_a_small_address_space(tmp_path):
    # A q = 0 near-tie: about two equilibria per row.  poa reads the
    # count and the worst state from the intervals and never lists them.
    poa = _cli_in_a_small_address_space(tmp_path, (10**6, 10**6 - 1), 1.0, 0.0, ["poa"])
    assert poa.returncode == 0, poa.stderr
    assert json.loads(poa.stdout)["ne_count"] == 2 * 10**6


@pytest.mark.parametrize("argv", [["two-source", "scan"], ["poa"]])
@pytest.mark.parametrize("counts", [(MAX_COUNT, 1), (1, MAX_COUNT)])
def test_cli_scan_beyond_its_size_limit_exits_2(tmp_path, capsys, monkeypatch, argv, counts):
    def no_work(*args):
        raise AssertionError("work ran before the size check")

    monkeypatch.setattr(ln.equilibrium, "solve_optimal", no_work)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"m": 2, "n": list(counts), "phi": 1.0, "mu": 10.0, "q": 0.3}))
    assert cli.main([argv[0], "--instance", str(path), *argv[1:]]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "2**50" in captured.err
    # One user fewer is scanned.
    small = ln.Instance((MAX_COUNT - 1, 1), 1.0, 10.0, 0.3)
    assert ln.scan_nash(small)


def test_swap_everything_at_q0_with_near_equal_counts():
    # One extra user on the larger side and lossless sidelinks: the full-swap
    # state is an equilibrium.
    for k in (1, 3, 6):
        inst = ln.Instance((k + 1, k), 1.0, 1.0, 0.0)
        assert TwoSourceState(0, 0) in ln.scan_nash(inst)


def test_scan_nonempty_with_a_full_small_source_state():
    rng = random.Random(61)
    for _ in range(40):
        inst = rand_two_source(rng, n_max=12)
        states = ln.scan_nash(inst)
        assert states
        n2 = min(inst.user_counts)
        assert any(s.u2 == inst.user_counts[1] and s.u1 > 0 for s in states), (
            inst, states,
        )


def test_existence_construction_frozen_examples():
    assert ln.construct_existence_ne(
        ln.Instance((3, 2), 1.0, 1.0, 0.5)
    ) == TwoSourceState(3, 2)
    assert ln.construct_existence_ne(
        ln.Instance((100, 1), 1.0, 1.0, 0.1)
    ) == TwoSourceState(51, 1)


def test_existence_construction_always_verified():
    rng = random.Random(67)
    for _ in range(60):
        inst = rand_two_source(rng, n_max=20)
        s = ln.construct_existence_ne(inst)
        assert s.u1 > 0
        assert s.u2 == inst.user_counts[1]
        assert ln.classify(inst, s).is_ne
        assert ln.is_nash_deviation_oracle(inst, s.expand(inst)).is_ne


@pytest.mark.parametrize("counts", [(33231013, 20165343), (20165343, 33231013)])
def test_existence_construction_where_t1_rounds_past_region_3(tmp_path, capsys, counts):
    # t1(n2) rounds to 27818477.0 here, and the column u2 = n2 admits only
    # 27818476, so floor(t1(n2)) alone is one cell too far.
    inst = ln.Instance(counts, 1.0, 30.0, 0.1)
    state = ln.construct_existence_ne(inst)
    expected = (27818476, 20165343) if counts[0] > counts[1] else (20165343, 27818476)
    assert (state.u1, state.u2) == expected
    assert cross_check_state(inst, state)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_json(inst)))
    assert cli.main(["two-source", "--instance", str(path), "existence"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"u1": expected[0], "u2": expected[1]}


def heavy_neighbourhoods():
    """(instance, state) for every state of the 3 x 3 neighbourhoods of all-direct
    and of `construct_existence_ne` on 300 seeded instances with n1 = 10**U(3, 7)."""
    rng = random.Random(18)
    for _ in range(300):
        n1 = round(10 ** rng.uniform(3, 7))
        n2 = rng.randint(1, n1)
        inst = ln.Instance((n1, n2), rng.choice((1.0, rng.uniform(0.5, 2.0))),
                           rng.choice((1.0, 10.0, 30.0, rng.uniform(0.1, 100.0))),
                           rng.choice((0.3, 0.9, rng.random())))
        s = ln.construct_existence_ne(inst)
        cells = {(a + d1, b + d2) for a, b in ((n1, n2), (s.u1, s.u2))
                 for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)}
        for a1, a2 in sorted(cells):
            if 0 <= a1 <= n1 and 0 <= a2 <= n2:
                yield inst, TwoSourceState(a1, a2)


def test_deciders_agree_at_heavy_traffic():
    # One-user gains in loss rate fall below 1e-9 near 1e4 users, but
    # `prefers` compares routes in users, as the characterization does.
    states = list(heavy_neighbourhoods())
    assert len(states) > 1500
    for inst, state in states:
        assert cross_check_state(inst, state), (inst, state)


def test_deciders_agree_on_an_exact_tie_in_users():
    # Moving a class-(0, 0) user to link 1 is an exact tie: both links then
    # carry the rate of 502,237 users.  The float slack is about 1e-9 * phi
    # in rate units, so `prefers` passes this only when it divides by phi.
    inst = ln.Instance((753355, 251118), 77.7, 777.0, 0.0)
    state = TwoSourceState(251119, 0)
    prof = state.expand(inst)
    assert prof.flow == ((251119, 502236), (251118, 0))
    assert ln.is_nash_characterization(inst, prof).is_ne is True
    assert ln.is_nash_deviation_oracle(inst, prof).is_ne is True
    assert cross_check_state(inst, state)


def test_case3_upper_companion_condition_is_implied():
    # In the full-small-source region the companion inequality u2 <= t2(u1)
    # follows from u1 >= t1(n2) - 1; sample it rather than trust it.
    rng = random.Random(71)
    for _ in range(200):
        n1 = rng.randint(2, 25)
        n2 = rng.randint(1, n1)
        q = rng.uniform(0.001, 0.999)
        mu = rng.uniform(0.1, 10.0)
        inst = ln.Instance((n1, n2), 1.0, mu, q)
        top = thresholds(inst, n1, n2)[0]
        for u1 in range(max(1, math.ceil(top - 1.0 - 1e-9)), n1):
            if u1 > top + 1e-9:
                break
            assert n2 <= thresholds(inst, u1, n2)[1] + 1e-9, (inst, u1)


def test_corollaries_q1_instance():
    res = ln.check_corollaries(ln.Instance((4, 2), 1.0, 1.0, 1.0))
    assert res["optimal_all_direct_is_ne"] == "pass"
    assert res["all_indirect_ne_iff"] == "pass"


def test_classify_q1_mixed_state_is_not_ne_at_heavy_traffic():
    # At q = 1 every relayed user strictly gains by going direct, but at
    # n1 = 1e9 the gain in loss rate is below 1e-9.  Every decider compares
    # in users, so classify, the characterization and the oracle all see it.
    inst = ln.Instance((10**9, 1), 1.0, 1.0, 1.0)
    mirror = ln.Instance((1, 10**9), 1.0, 1.0, 1.0)
    for i, s in ((inst, TwoSourceState(10**9 - 1, 1)), (mirror, TwoSourceState(1, 10**9 - 1))):
        verdict = ln.classify(i, s)
        assert verdict.case_id == "3"
        assert verdict.is_ne is False
        assert ln.is_nash_characterization(i, s.expand(i)).is_ne is False
        assert ln.is_nash_deviation_oracle(i, s.expand(i)).is_ne is False
    assert ln.classify(inst, TwoSourceState(10**9, 1)).is_ne


def test_q1_scan_skips_the_grid_at_heavy_traffic():
    # At q = 1 only the all-direct corner can be an equilibrium; a full
    # (n1+1) x (n2+1) grid here would take about 10 GB per boolean array.
    for counts in ((10**5, 10**5), (10**5, 3), (3, 10**5)):
        inst = ln.Instance(counts, 1.0, 1.0, 1.0)
        all_direct = TwoSourceState(*counts)
        assert ln.scan_nash(inst) == [all_direct]
        report = ln.poa_report(inst)
        assert report.ne_count == 1
        assert report.tr_worst_ne == ln.total_traffic(inst, all_direct.expand(inst))
        assert ln.check_corollaries(inst)["unique_all_direct_ne"] == "pass"


def test_corollary_full_swap_condition_b():
    # Equal counts and nearly lossless sidelinks: (0, 0) is an equilibrium.
    inst = ln.Instance((5, 5), 1.0, 1.0, 0.01)
    n1, qb = 5, 0.99
    assert n1 * (1 - qb * qb) <= qb - 0.01 * 1.0
    assert ln.classify(inst, TwoSourceState(0, 0)).is_ne
    assert ln.check_corollaries(inst)["all_indirect_ne_iff"] == "pass"


def test_corollary_uniqueness_sampled():
    rng = random.Random(73)
    found = 0
    while found < 25:
        inst = rand_two_source(rng, n_max=12)
        n1, n2 = inst.user_counts
        qm = inst.q * inst.mu / inst.phi
        if n1 * inst.qbar < qm + n2 + inst.qbar and inst.q > 2.0 / inst.n:
            found += 1
            assert ln.check_corollaries(inst)["unique_all_direct_ne"] == "pass"
            assert ln.scan_nash(inst) == [TwoSourceState(n1, n2)]


def test_corollaries_always_return_verdict_per_rule():
    rng = random.Random(79)
    for _ in range(20):
        inst = rand_two_source(rng)
        res = ln.check_corollaries(inst)
        assert set(res) == {
            "optimal_all_direct_is_ne",
            "all_indirect_ne_iff",
            "unique_all_direct_ne",
        }
        assert all(v in ("pass", "fail", "not-applicable") for v in res.values())
        assert res["optimal_all_direct_is_ne"] != "fail"
        assert res["all_indirect_ne_iff"] != "fail"
        assert res["unique_all_direct_ne"] != "fail"


def test_two_source_ops_reject_other_sizes():
    inst = ln.Instance((2, 2, 2), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        ln.scan_nash(inst)
    with pytest.raises(InvalidInputError):
        ln.classify(inst, TwoSourceState(1, 1))


def test_state_expansion_round_trip():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    prof = TwoSourceState(1, 2).expand(inst)
    assert prof.flow == ((1, 2), (0, 2))
    assert prof.u() == (1, 2)
    with pytest.raises(InvalidInputError):
        TwoSourceState(4, 0).expand(inst)
