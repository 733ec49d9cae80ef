"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Shared sample sets are computed once per module and reused across criteria.
"""

import random

import pytest

import lossnet as ln
from lossnet.packet_sim import assess_outcome
from lossnet.two_source import TwoSourceState

from conftest import count_shapes, cross_check_state

REL_TOL = 1e-9


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared sample sets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def optimizer_samples():
    rng = random.Random(193)
    out = []
    for _ in range(200):
        m = rng.choice((2, 3))
        counts = tuple(rng.randint(1, 10) for _ in range(m))
        out.append(
            ln.Instance(
                counts, 1.0, rng.choice((0.5, 1.0, 2.0, 5.0)),
                rng.choice((0.0, 0.1, 0.5, 0.9, 1.0)),
            )
        )
    return out


@pytest.fixture(scope="module")
def exhaustive_universe():
    """Every profile of every instance with m <= 3, total users <= 8.

    Returns (records, checked, disagreements) where each record is
    (instance, [equilibrium traffic rates]).
    """
    records = []
    checked = 0
    disagreements = []
    for counts in count_shapes(3, 8):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            for mu in (0.5, 1.0, 3.0):
                inst = ln.Instance(counts, 1.0, mu, q)
                ne_traffic = []
                for prof in ln.iter_profiles(inst):
                    a = ln.is_nash_characterization(inst, prof).is_ne
                    b = ln.is_nash_deviation_oracle(inst, prof).is_ne
                    checked += 1
                    if a != b:
                        disagreements.append((counts, q, mu, prof.flow))
                    if a:
                        ne_traffic.append(ln.total_traffic(inst, prof))
                records.append((inst, ne_traffic))
    return records, checked, disagreements


@pytest.fixture(scope="module")
def two_source_samples():
    rng = random.Random(197)
    out = []
    for _ in range(50):
        n1 = rng.randint(1, 15)
        n2 = rng.randint(1, n1)
        q = rng.choice([0.0, 1.0, rng.random(), rng.random(), rng.random()])
        mu = rng.choice([0.5, 1.0, 3.0, 10.0])
        inst = ln.Instance((n1, n2), 1.0, mu, q)
        out.append((inst, ln.scan_nash(inst)))
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_optimizer_matches_exhaustive_oracle(optimizer_samples):
    worst = 0.0
    for inst in optimizer_samples:
        fast = ln.solve_optimal(inst).tr
        ref = ln.brute_force_optimal(inst).tr
        rel = abs(fast - ref) / max(1.0, abs(ref))
        worst = max(worst, rel)
        if rel > REL_TOL:
            break
    verdict(
        1, "solver equals brute force on 200 random instances",
        worst <= REL_TOL, f"worst relative gap {worst:.2e}",
    )


def test_criterion_2_degenerate_loss_regimes():
    rng = random.Random(211)
    ok = True
    for _ in range(50):
        m = rng.choice((2, 3))
        counts = tuple(rng.randint(1, 10) for _ in range(m))
        inst = ln.Instance(counts, 1.0, rng.choice((0.5, 1.0, 2.0, 5.0)), 1.0)
        sol = ln.solve_optimal(inst)
        ok = ok and sol.u == counts and sol.v == tuple([0] * m)
    for _ in range(50):
        m = rng.choice((2, 3))
        counts = tuple(rng.randint(1, 10) for _ in range(m))
        inst = ln.Instance(counts, 1.0, rng.choice((0.5, 1.0, 2.0, 5.0)), 0.0)
        y = ln.solve_optimal(inst).profile.y()
        ok = ok and max(y) - min(y) <= 1
    verdict(
        2, "q=1 gives the all-direct optimum and q=0 balances link loads", ok,
    )


def test_criterion_3_characterization_equals_oracle_exhaustively(exhaustive_universe):
    _, checked, disagreements = exhaustive_universe
    verdict(
        3, "load conditions match the deviation oracle on every small profile",
        not disagreements, f"{checked} profiles checked",
    )


def test_criterion_4_two_source_closed_form(two_source_samples):
    mismatches = 0
    existence_ok = True
    grid_points = 0
    for inst, states in two_source_samples:
        n1, n2 = inst.user_counts
        for u1 in range(n1 + 1):
            for u2 in range(n2 + 1):
                grid_points += 1
                if not cross_check_state(inst, TwoSourceState(u1, u2)):
                    mismatches += 1
        existence_ok = existence_ok and bool(states)
        existence_ok = existence_ok and any(
            s.u2 == inst.user_counts[1] and s.u1 > 0 for s in states
        )
    verdict(
        4, "two-source grids agree across all three deciders with existence",
        mismatches == 0 and existence_ok,
        f"{grid_points} grid states over 50 instances",
    )


def test_criterion_5_analytic_bounds(
    optimizer_samples, exhaustive_universe, two_source_samples
):
    records, _, _ = exhaustive_universe
    upper_ok = lower_ok = poa_ok = True
    lower_checked = 0
    ne_cap = 50_000

    def check_ne_clauses(inst, ne_traffic):
        nonlocal lower_ok, poa_ok, lower_checked
        z = ln.mixing_level(inst)
        if z <= 0 or not ne_traffic:
            return
        lower_checked += 1
        bounds = ln.ne_traffic_bounds(inst)
        if min(ne_traffic) < bounds.ne_lower - 1e-9:
            lower_ok = False
        poa = ln.solve_optimal(inst).tr / min(ne_traffic)
        n1 = max(inst.user_counts)
        bound = 1.0 + n1 * inst.mu / (n1 * z * inst.phi + z * inst.mu)
        if poa > bound + 1e-6:
            poa_ok = False

    for inst in optimizer_samples:
        if ln.solve_optimal(inst).tr > ln.opt_traffic_upper_bound(inst) + 1e-9:
            upper_ok = False
        if inst.m == 2:
            trs = [
                ln.total_traffic(inst, s.expand(inst)) for s in ln.scan_nash(inst)
            ]
            check_ne_clauses(inst, trs)
        elif ln.count_profiles(inst) <= ne_cap:
            trs = [s.total_traffic for _, s in ln.enumerate_nash(inst, cap=ne_cap)]
            check_ne_clauses(inst, trs)
    for inst, ne_traffic in records:
        if ln.solve_optimal(inst).tr > ln.opt_traffic_upper_bound(inst) + 1e-9:
            upper_ok = False
        check_ne_clauses(inst, ne_traffic)
    for inst, states in two_source_samples:
        if ln.solve_optimal(inst).tr > ln.opt_traffic_upper_bound(inst) + 1e-9:
            upper_ok = False
        trs = [ln.total_traffic(inst, s.expand(inst)) for s in states]
        check_ne_clauses(inst, trs)

    verdict(
        5, "optimum upper bound, equilibrium lower bound, and the PoA cap hold",
        upper_ok and lower_ok and poa_ok,
        f"lower/PoA clauses bound on {lower_checked} instances",
    )


def test_criterion_6_headline_price_of_anarchy():
    spec = ln.figure_presets()["q_sweep"]
    rows = ln.run_sweep(spec)
    poas = [r["poa_exact"] for r in rows]
    ok = (
        all(isinstance(p, float) for p in poas)
        and max(poas) <= 1.08
        and abs(poas[0] - 1.0) <= 1e-9
        and abs(poas[-1] - 1.0) <= 1e-9
    )
    verdict(
        6, "q sweep peaks below 1.08 and is exactly 1 at both q endpoints", ok,
        f"max PoA {max(poas):.5f} at q={rows[poas.index(max(poas))]['axis_value']}",
    )


def test_criterion_7_figure_shapes():
    presets = ln.figure_presets()
    mu_rows = ln.run_sweep(presets["mu_sweep"])
    trs = [r["tr_opt"] for r in mu_rows]
    mu_ok = all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trs, trs[1:]))

    n1_rows = ln.run_sweep(presets["n1_sweep"])
    poa_first, poa_last = n1_rows[0]["poa_exact"], n1_rows[-1]["poa_exact"]
    n1_ok = abs(poa_first - 1.0) <= 0.005 and abs(poa_last - 1.0) <= 0.005

    m3_rows = ln.run_sweep(presets["n1_sweep_m3"])
    m3 = [r["tr_opt"] for r in m3_rows]
    diffs = [b - a for a, b in zip(m3, m3[1:])]
    m3_ok = all(d > 0 for d in diffs) and all(
        d2 < d1 for d1, d2 in zip(diffs, diffs[1:])
    )

    verdict(
        7, "service-rate growth, n1 endpoint efficiency, and concave growth shapes",
        mu_ok and n1_ok and m3_ok,
        f"n1 endpoints {poa_first:.4f}/{poa_last:.4f}",
    )


def test_criterion_8_simulator_fidelity():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile.all_direct(inst)
    rates = ln.traffic_rates(inst, prof)
    wrong = tuple(t + 1.0 for t in rates)
    within = 0
    conservation = True
    negative_control = True
    for seed in range(20):
        out = ln.simulate(ln.SimConfig(inst, prof, 1_000_000.0, seed))
        for c in out.per_class.values():
            if c.generated != c.sidelink_lost + c.congestion_lost + c.delivered:
                conservation = False
        good = assess_outcome(inst, prof, out, rates, 3.0)
        if all(c.passed for c in good.checks if c.kind == "link-blocking"):
            within += 1
        bad = assess_outcome(inst, prof, out, wrong, 3.0)
        if all(c.passed for c in bad.checks if c.kind == "link-blocking"):
            negative_control = False
    verdict(
        8, "packet-level blocking matches theory, conserves packets, and "
        "rejects wrong targets",
        within >= 19 and conservation and negative_control,
        f"{within}/20 runs within 3 sigma on every link",
    )


def test_criterion_9_best_response_soundness():
    rng = random.Random(227)
    converged = 0
    sound = True
    runs = 0
    for _ in range(20):
        m = rng.choice((2, 3))
        counts = tuple(rng.randint(1, 6) for _ in range(m))
        inst = ln.Instance(
            counts, 1.0, rng.choice((0.5, 1.0, 3.0)),
            rng.choice([0.0, 1.0, rng.random()]),
        )
        for _ in range(5):
            runs += 1
            rows = []
            for n in inst.user_counts:
                row = [0] * inst.m
                for _ in range(n):
                    row[rng.randrange(inst.m)] += 1
                rows.append(tuple(row))
            start = ln.RoutingProfile(tuple(rows))
            res = ln.best_response_dynamics(
                inst, start, max_rounds=500, seed=rng.randrange(10_000)
            )
            if res.outcome == "converged":
                converged += 1
                if not ln.is_nash_deviation_oracle(inst, res.profile).is_ne:
                    sound = False
    verdict(
        9, "every converged best-response run ends at an oracle-verified equilibrium",
        sound, f"{converged}/{runs} runs converged",
    )
