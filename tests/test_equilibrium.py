import collections
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lossnet as ln
from lossnet.equilibrium import _conditions, _moved_rates
from lossnet.errors import CapacityError, InvalidInputError
from lossnet.model import delivered, link_rates, prefers, profile_blocks

from conftest import (
    count_shapes, iter_profiles, moved, ne_traffic_floor, random_instance, random_profile,
    reference_oracle,
)


def both_verdicts(inst, prof):
    return (
        ln.is_nash_characterization(inst, prof).is_ne,
        ln.is_nash_deviation_oracle(inst, prof).is_ne,
    )


def test_all_direct_is_equilibrium_3_2():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    prof = ln.RoutingProfile.all_direct(inst)
    assert both_verdicts(inst, prof) == (True, True)


def test_full_large_source_with_partial_small_source_never_ne():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    # u1 = n1 while the small source has a relaying user
    prof = ln.RoutingProfile(((3, 0), (1, 1)))
    assert both_verdicts(inst, prof) == (False, False)


def test_single_source_trivially_ne():
    inst = ln.Instance((4,), 1.0, 1.0, 0.5)
    prof = ln.RoutingProfile(((4,),))
    v = ln.is_nash_characterization(inst, prof)
    assert v.is_ne and v.violations == ()
    assert ln.is_nash_deviation_oracle(inst, prof).is_ne


def test_q1_direct_pair_is_ne_and_indirect_is_not():
    inst = ln.Instance((1, 1), 1.0, 1.0, 1.0)
    assert both_verdicts(inst, ln.RoutingProfile.all_direct(inst)) == (True, True)
    assert both_verdicts(inst, ln.RoutingProfile(((0, 1), (1, 0)))) == (False, False)


def test_characterization_matches_oracle_exhaustively_small():
    for counts in count_shapes(3, 6):
        for q in (0.0, 0.5, 1.0):
            for mu in (0.5, 1.0, 3.0):
                inst = ln.Instance(counts, 1.0, mu, q)
                for prof in iter_profiles(inst):
                    a, b = both_verdicts(inst, prof)
                    assert a == b, (counts, q, mu, prof.flow)


def test_characterization_matches_oracle_randomized():
    rng = random.Random(31)
    for _ in range(5000):
        inst = random_instance(rng, m_choices=(2, 3, 4), n_max=12)
        prof = random_profile(rng, inst)
        a, b = both_verdicts(inst, prof)
        assert a == b, (inst, prof.flow)


def test_minimum_load_source_coincides_with_deviator():
    # Regression for the condition set evaluated at the global minimum-load
    # source: profiles engineered so that source equals the deviator's own
    # source or its relay.
    q = 0.5
    # relay-side coincidence: the relay itself carries the minimum load
    inst = ln.Instance((4, 2, 1), 1.0, 1.0, q)
    prof = ln.RoutingProfile(((3, 0, 1), (0, 2, 0), (0, 0, 1)))
    verdicts = both_verdicts(inst, prof)
    assert verdicts[0] == verdicts[1]
    # origin-side coincidence: the deviator's own source has minimum load
    inst2 = ln.Instance((3, 1, 1), 1.0, 1.0, q)
    prof2 = ln.RoutingProfile(((0, 3, 0), (0, 1, 0), (0, 0, 1)))
    verdicts2 = both_verdicts(inst2, prof2)
    assert verdicts2[0] == verdicts2[1]
    # and the two-source shapes from the analysis notes
    inst3 = ln.Instance((5, 1), 1.0, 1.0, 0.0)
    prof3 = ln.RoutingProfile(((5, 0), (0, 1)))
    assert both_verdicts(inst3, prof3)[0] == both_verdicts(inst3, prof3)[1]


def test_enumerate_unique_equilibrium_3_2():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    nes = ln.enumerate_nash(inst, cap=10**6)
    assert [p.flow for p, _ in nes] == [((3, 0), (0, 2))]


def test_enumerate_single_source():
    inst = ln.Instance((3,), 1.0, 1.0, 0.5)
    nes = ln.enumerate_nash(inst, cap=100)
    assert len(nes) == 1 and nes[0][0].flow == ((3,),)


def test_enumerate_frozen_equilibrium_set_2_2():
    # Fixed by exhaustive deviation-oracle enumeration before the build.
    inst = ln.Instance((2, 2), 1.0, 1.0, 0.05)
    nes = ln.enumerate_nash(inst, cap=10**6)
    assert [p.flow for p, _ in nes] == [
        ((0, 2), (2, 0)),
        ((1, 1), (1, 1)),
        ((2, 0), (0, 2)),
    ]
    worst = min(s.total_traffic for _, s in nes)
    assert worst == pytest.approx(1.3103448275862069, rel=1e-12)


def exhaustive_instances():
    """Every count vector with m <= 3 and at most 7 users, at three (q, mu), and
    (6, 5, 4) at q = 0, whose 8,820 profiles span several blocks."""
    shapes = [
        c for m in (1, 2, 3) for c in itertools.product(range(1, 8), repeat=m) if sum(c) <= 7
    ]
    cases = [(c, q, mu) for c in shapes for q, mu in ((0.0, 1.0), (0.3, 0.5), (0.7, 3.0))]
    cases.append(((6, 5, 4), 0.0, 1.0))
    for counts, q, mu in cases:
        yield ln.Instance(counts, 1.0, mu, q)


def test_enumerate_equals_oracle_filter_of_all_profiles():
    for inst in exhaustive_instances():
        want = [p for p in iter_profiles(inst) if ln.is_nash_deviation_oracle(inst, p).is_ne]
        assert [p for p, _ in ln.enumerate_nash(inst)] == want, inst


def assert_count_and_worst_equal_the_expanded_list(inst):
    """`len` and `worst()`, read before the list exists, equal the count and the
    first least-traffic pair of the expanded list, whose traffic the columns'
    array holds bit for bit; `poa_report` beyond two sources reports the same."""
    nes = ln.enumerate_nash(inst)
    count, worst = len(nes), nes.worst()
    pairs = list(nes)
    assert count == len(pairs), inst
    assert [s.total_traffic for _, s in pairs] == nes._traffic.tolist(), inst
    if pairs:
        least = min(s.total_traffic for _, s in pairs)
        assert worst == next(pair for pair in pairs if pair[1].total_traffic == least), inst
    else:
        assert worst is None, inst
    if inst.m != 2:
        rep = ln.poa_report(inst)
        assert rep.ne_count == count, inst
        assert repr(rep.tr_worst_ne) == repr(worst[1].total_traffic if pairs else None), inst


def test_enumeration_count_and_worst_equal_the_expanded_list():
    for inst in exhaustive_instances():
        assert_count_and_worst_equal_the_expanded_list(inst)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    counts=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    phi=st.floats(0.01, 100.0),
    mu_per_phi=st.floats(1e-3, 1e4),
    q=st.one_of(st.sampled_from([0.0, 1e-3, 1.0 - 1e-3, 1.0]), st.floats(0.0, 1.0)),
)
def test_enumeration_count_and_worst_equal_the_expanded_list_hypothesis(
    counts, phi, mu_per_phi, q
):
    assert_count_and_worst_equal_the_expanded_list(ln.Instance(counts, phi, mu_per_phi * phi, q))


def test_poa_builds_one_summary_for_hundreds_of_equilibria(monkeypatch):
    calls = []

    def counted(inst, prof):
        calls.append(prof)
        return ln.summarize(inst, prof)

    inst = ln.Instance((6, 5, 5), 1.0, 1.0, 0.0)
    monkeypatch.setattr(ln.equilibrium, "summarize", counted)
    rep = ln.poa_report(inst)
    assert rep.ne_count == 798 and len(calls) == 1
    assert rep.tr_worst_ne == ln.total_traffic(inst, calls[0])


def test_enumerate_cap_error_names_count_and_cap():
    inst = ln.Instance((4, 4), 1.0, 1.0, 0.5)
    with pytest.raises(CapacityError, match="25 profiles.*cap 10"):
        ln.enumerate_nash(inst, cap=10)


def test_enumeration_summaries_are_consistent():
    inst = ln.Instance((2, 2), 1.0, 1.0, 0.05)
    for prof, summary in ln.enumerate_nash(inst, cap=10**6):
        assert summary.total_traffic == pytest.approx(
            ln.total_traffic(inst, prof), rel=1e-12
        )


def test_dynamics_fixed_point_converges_immediately():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    ne = ln.RoutingProfile.all_direct(inst)
    res = ln.best_response_dynamics(inst, ne, max_rounds=50, seed=0)
    assert res.outcome == "converged"
    assert res.rounds == 1
    assert res.profile == ne


def test_dynamics_budget_exhausted_after_max_rounds():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    start = ln.RoutingProfile(((0, 3), (2, 0)))
    for seed in (0, 1, 2):
        assert ln.best_response_dynamics(inst, start, max_rounds=100, seed=seed).rounds > 1
        res = ln.best_response_dynamics(inst, start, max_rounds=1, seed=seed)
        assert res.outcome == "budget-exhausted"
        assert res.rounds == 1
        assert res.profile.flow == ((1, 2), (1, 1))


def test_dynamics_reaches_unique_equilibrium():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    starts = [
        ln.RoutingProfile(((0, 3), (2, 0))),
        ln.RoutingProfile(((1, 2), (1, 1))),
        ln.RoutingProfile(((2, 1), (0, 2))),
    ]
    for seed, start in itertools.product((0, 1, 2), starts):
        res = ln.best_response_dynamics(inst, start, max_rounds=200, seed=seed)
        assert res.outcome == "converged"
        assert res.profile.flow == ((3, 0), (0, 2))


def test_dynamics_converged_profiles_pass_the_oracle():
    rng = random.Random(37)
    for _ in range(30):
        inst = random_instance(rng, m_choices=(2, 3), n_max=6)
        start = random_profile(rng, inst)
        res = ln.best_response_dynamics(inst, start, max_rounds=300, seed=rng.randrange(100))
        if res.outcome == "converged":
            assert ln.is_nash_deviation_oracle(inst, res.profile).is_ne


def test_dynamics_memory_does_not_grow_with_the_path():
    # Every move raises the potential, so no visited profile is kept to
    # catch a cycle; keeping all 4,280 of them here peaks at about 1 MB.
    inst = ln.Instance((10**4, 10**3), 1.0, 30.0, 0.3)
    tracemalloc.start()
    try:
        res = ln.best_response_dynamics(inst, ln.RoutingProfile.all_direct(inst), max_rounds=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
    assert (res.outcome, res.rounds) == ("converged", 4280)
    assert res.profile.flow == ((5721, 4279), (0, 1000))


FROZEN_DYNAMICS_OUTCOMES = {"converged": 958, "budget-exhausted": 542}
FROZEN_DYNAMICS_SHA256 = "4ac1a19b12c38113f9a49176782a7db9c1c352575087395157b3149883504b3a"


def test_dynamics_results_are_frozen():
    # sha256 of every run's (flow, rounds, outcome), frozen from dynamics
    # that re-rated every link after each move; re-rating only the two links
    # a move touches must keep every bit.
    rng = random.Random(19)
    runs = []
    for _ in range(1500):
        inst = random_instance(rng, m_choices=(2, 3, 4), n_max=8,
                               mu_choices=(0.3, 1.0, 2.5, 7.0),
                               q_choices=(0.0, 0.3, 1.0, rng.random()),
                               phi=rng.choice((0.5, 1.0, 1.7)))
        start = random_profile(rng, inst)
        res = ln.best_response_dynamics(inst, start, max_rounds=rng.choice((1, 3, 50, 50)),
                                        seed=rng.randrange(2**31))
        runs.append((res.profile.flow, res.rounds, res.outcome))
    assert collections.Counter(outcome for *_, outcome in runs) == FROZEN_DYNAMICS_OUTCOMES
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == FROZEN_DYNAMICS_SHA256


@pytest.mark.parametrize("kwargs, field", [
    ({"seed": -7}, "seed"), ({"seed": None}, "seed"), ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"), ({"max_rounds": 2.5}, "max_rounds"),
    ({"max_rounds": True}, "max_rounds"),
])
def test_dynamics_rejects_bad_seed_and_max_rounds(kwargs, field):
    # random.Random seeds with |seed| and draws OS entropy for None, so
    # -7 would replay seed 7 and None could not be replayed at all.
    inst = ln.Instance((6, 5, 4), 1.0, 1.0, 0.5)
    start = ln.RoutingProfile(((0, 3, 3), (2, 1, 2), (1, 1, 2)))
    with pytest.raises(InvalidInputError, match=field):
        ln.best_response_dynamics(inst, start, **kwargs)


def exact_loss_and_potential(inst, flow, i, r):
    """The exact loss rate of a class-(i, r) user of `flow`, and prod_l (T_l + mu).

    phi, mu and q are parsed from their decimal repr, as in `exact_traffic`.
    """
    phi, mu, q = (Fraction(str(x)) for x in (inst.phi, inst.mu, inst.q))
    t = [phi * (flow[j][j] + (1 - q) * sum(row[j] for k, row in enumerate(flow) if k != j))
         for j in range(len(flow))]
    congested = t[r] / (t[r] + mu)
    loss = phi * (congested if r == i else q + (1 - q) * congested)
    potential = Fraction(1)
    for tj in t:
        potential *= tj + mu
    return loss, potential


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_one_user_move_is_ordered_by_the_potential(data):
    """Phi = prod_l (T_l + mu) is an ordinal potential of the game: for every
    one-user move the mover's exact loss falls exactly when Phi rises, and
    equal losses go with equal Phi.  `prefers` gives the same verdict."""
    m = data.draw(st.integers(2, 4))
    counts = data.draw(st.tuples(*[st.integers(1, 6)] * m))
    inst = ln.Instance(counts,
                       data.draw(st.integers(1, 40)) / 10,   # phi
                       data.draw(st.integers(1, 500)) / 100,  # mu
                       data.draw(st.integers(0, 10)) / 10)    # q, both ends included
    flow = []
    for n in counts:
        routes = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        flow.append(tuple(routes.count(j) for j in range(m)))
    prof = ln.RoutingProfile(tuple(flow))
    t = ln.traffic_rates(inst, prof)
    for i, r in itertools.product(range(m), repeat=2):
        if flow[i][r] < 1:
            continue
        before, phi_before = exact_loss_and_potential(inst, prof.flow, i, r)
        for r2, t2 in enumerate(_moved_rates(inst, prof.flow, i)):
            if r2 == r:
                continue
            after, phi_after = exact_loss_and_potential(inst, moved(prof, i, r, r2).flow, i, r2)
            assert (after < before) == (phi_after > phi_before), (inst, flow, i, r, r2)
            assert (after == before) == (phi_after == phi_before), (inst, flow, i, r, r2)
            assert prefers(inst, i, r2, t2, r, t[r]) == (after < before), (inst, flow, i, r, r2)


def test_poa_bound_not_applicable_example():
    rep = ln.poa_report(ln.Instance((3, 2), 1.0, 1.0, 0.5))
    assert rep.z == pytest.approx(-0.375, abs=1e-12)
    assert rep.poa_bound is None
    assert rep.ne_count == 1
    assert rep.poa_exact == pytest.approx(1.0, abs=1e-12)


def test_poa_is_one_at_q1():
    rng = random.Random(41)
    for _ in range(10):
        inst = random_instance(rng, m_choices=(2, 3), n_max=6, q_choices=(1.0,))
        rep = ln.poa_report(inst)
        assert rep.ne_count >= 1
        assert rep.poa_exact == pytest.approx(1.0, abs=1e-9)


def test_poa_frozen_2_2():
    inst = ln.Instance((2, 2), 1.0, 1.0, 0.05)
    rep = ln.poa_report(inst)
    assert rep.ne_count == 3
    assert rep.tr_worst_ne == pytest.approx(1.3103448275862069, rel=1e-12)
    assert rep.poa_exact == pytest.approx(rep.tr_opt / rep.tr_worst_ne, rel=1e-12)
    assert rep.poa_exact >= 1.0


def test_two_source_worst_ne_is_the_exact_minimum_over_the_scan():
    # The per-state int evaluation gives total_traffic's bits, q = 0 ties included.
    rng = random.Random(5)
    for _ in range(150):
        inst = random_instance(
            rng, m_choices=(2,), n_max=60, mu_choices=(0.5, 1.0, 3.0, 30.0),
            q_choices=(0.0, 0.0, 0.3, rng.random()), phi=rng.choice((0.37, 1.0, 2.9)),
        )
        states = ln.scan_nash(inst)
        worst = min((ln.total_traffic(inst, s.expand(inst)) for s in states), default=None)
        assert ln.poa_report(inst).tr_worst_ne == worst


def assert_end_minimum_is_the_list_minimum(inst):
    """poa_report reads the interval ends; the reference walks every listed state.

    The ends must also hold the first and last state of every run of u2 in a
    row of the sorted instance: the worst state has not been seen at an
    upper end only, so ends that lost the upper ones would still give the
    right minimum.
    """
    n1, n2 = inst.user_counts
    states = list(ln.scan_nash(inst))
    worst = min((delivered(inst, link_rates(inst, ((s.u1, n1 - s.u1), (n2 - s.u2, s.u2))))
                 for s in states), default=None)
    rep = ln.poa_report(inst)
    assert repr(rep.tr_worst_ne) == repr(worst), inst
    assert rep.ne_count == len(states), inst
    swap = n1 < n2
    cells = {(s.u2, s.u1) if swap else (s.u1, s.u2) for s in states}
    run_ends = {(a, b) for a, b in cells if (a, b - 1) not in cells or (a, b + 1) not in cells}
    u1, u2 = (a.tolist() for a in ln.scan_nash(inst).ends())
    ends = set(zip(*((u2, u1) if swap else (u1, u2))))
    assert run_ends <= ends <= cells, inst


def end_minimum_corpus():
    rng = random.Random(27)
    for _ in range(300):
        n1 = int(10 ** rng.uniform(0, 4))
        n2 = rng.choice([n1, max(1, n1 - 1), rng.randint(1, n1), int(10 ** rng.uniform(0, 4))])
        q = rng.choice([0.0, 1e-3, rng.random(), 1.0 - 1e-3, 1.0])
        counts = (n1, n2) if rng.random() < 0.5 else (n2, n1)
        yield ln.Instance(counts, 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-3, 4), q)
    yield ln.Instance((10**5, 10**5 - 1), 1.0, 1.0, 0.0)


def test_worst_ne_from_interval_ends_equals_the_list_minimum():
    # Along a row the delivered traffic is concave in u2, so the ends hold the
    # minimum; the corpus pins that float rounding agrees, near-ties included.
    for inst in end_minimum_corpus():
        assert_end_minimum_is_the_list_minimum(inst)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    counts=st.tuples(st.integers(1, 10**4), st.integers(-2, 2)),
    phi=st.floats(0.01, 100.0),
    mu_per_phi=st.floats(1e-3, 1e4),
    q=st.one_of(st.sampled_from([0.0, 1e-3, 1.0 - 1e-3, 1.0]), st.floats(0.0, 1.0)),
)
def test_worst_ne_from_interval_ends_equals_the_list_minimum_hypothesis(counts, phi, mu_per_phi, q):
    # The second count is the first moved by -2 to 2, where the sets are largest.
    n1, d = counts
    inst = ln.Instance((n1, max(1, n1 + d)), phi, mu_per_phi * phi, q)
    assert_end_minimum_is_the_list_minimum(inst)


def test_poa_empty_equilibrium_set_is_reported_not_raised():
    # No guarantee an equilibrium exists for m >= 3; fabricate a check that
    # the report path tolerates ne_count = 0 by raising the cap high enough
    # for a tiny instance and filtering on an impossible predicate is not
    # possible here; instead verify the report fields stay None-consistent.
    inst = ln.Instance((2, 1, 1), 1.0, 1.0, 0.5)
    rep = ln.poa_report(inst, cap=10**6)
    if rep.ne_count == 0:
        assert rep.tr_worst_ne is None and rep.poa_exact is None
    else:
        assert rep.tr_worst_ne is not None and rep.poa_exact >= 1.0


def test_ne_traffic_bounds_example():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    assert ln.opt_traffic_upper_bound(inst) == pytest.approx(1.5, abs=1e-12)
    assert ne_traffic_floor(inst) is None  # z < 0 here


def test_bounds_hold_for_equilibria_when_z_positive():
    # Engineered so z > 0: n / (4m) comfortably above qbar + q mu / phi.
    inst = ln.Instance((20, 20), 1.0, 1.0, 0.9)
    z = ln.mixing_level(inst)
    assert z > 0
    rep = ln.poa_report(inst)
    assert rep.ne_count >= 1
    assert rep.tr_worst_ne >= ne_traffic_floor(inst) - 1e-9
    assert rep.tr_opt <= ln.opt_traffic_upper_bound(inst) + 1e-9
    assert rep.poa_exact <= rep.poa_bound + 1e-6


def test_verdict_violation_records_are_ordered_pairs():
    inst = ln.Instance((4, 1), 1.0, 1.0, 0.0)
    prof = ln.RoutingProfile.all_direct(inst)  # severely unbalanced at q=0
    v = ln.is_nash_characterization(inst, prof)
    assert not v.is_ne
    for viol in v.violations:
        assert viol.lhs > viol.rhs + ln.TOLERANCE


# Enumeration-engine outputs, frozen from the implementation that preceded the
# profiles-last block layout and compared with ==.  A list of (flow, traffic)
# pairs is the whole equilibrium set in order.  At q = 0 loads tie everywhere
# and the set is large, so it is frozen as its count, first and last profile,
# each traffic value's multiplicity and the sha256 of the ordered list's repr.
FROZEN_ENGINE = [
    (
        ((6, 4, 3), 1.0, 1.0, 0.1),
        [
            (((5, 0, 1), (0, 1, 3), (0, 3, 0)), 2.4031760715386987),
            (((5, 0, 1), (0, 2, 2), (0, 2, 1)), 2.4122340425531914),
            (((5, 0, 1), (0, 3, 1), (0, 1, 2)), 2.4209183673469385),
            (((5, 0, 1), (0, 4, 0), (0, 0, 3)), 2.429251700680272),
            (((5, 1, 0), (0, 0, 4), (0, 3, 0)), 2.398550724637681),
            (((5, 1, 0), (0, 1, 3), (0, 2, 1)), 2.4078014184397163),
            (((5, 1, 0), (0, 2, 2), (0, 1, 2)), 2.4166666666666665),
            (((5, 1, 0), (0, 3, 1), (0, 0, 3)), 2.4251700680272106),
        ],
        (2.429251700680272, 2.398550724637681, 1.0127998027005363, 0.08333333333333323,
         11.285714285714299, 8),
        (((5, 0, 1), (0, 4, 0), (0, 0, 3)), 2.429251700680272, 1, 1),
        [
            (((0, 6, 0), (0, 0, 4), (3, 0, 0)), 0, [
                ("condition-(ii)-DP", 0, 1, 5.4, 3.23),
                ("condition-(ii)-IP", 0, 1, 5.4, 3.6)]),
            (((3, 0, 3), (0, 4, 0), (2, 0, 1)), 2, [
                ("condition-(ii)-DP", 2, 0, 4.8, 4.130000000000001),
                ("condition-(ii)-IP", 2, 0, 4.8, 4.6000000000000005)]),
            (((6, 0, 0), (4, 0, 0), (3, 0, 0)), 1, [
                ("condition-(i)", 0, None, 11.07, 1.0),
                ("condition-(ii)-DP", 1, 0, 12.3, 0.8),
                ("condition-(ii)-IP", 1, 0, 12.3, 0.9),
                ("condition-(ii)-DP", 2, 0, 12.3, 0.8),
                ("condition-(ii)-IP", 2, 0, 12.3, 0.9)]),
        ],
    ),
    (
        ((3, 2, 2), 1.0, 1.0, 0.0),
        (75, ((0, 0, 3), (0, 2, 0), (2, 0, 0)), ((3, 0, 0), (0, 2, 0), (0, 0, 2)),
         {2.083333333333333: 75},
         "a88ff19463d3cf3fc048c3d558bddcd0187f15ba355facb55a50c4a1c135fde3"),
        (2.083333333333333, 2.083333333333333, 1.0, -0.41666666666666663, None, 75),
        (((3, 0, 0), (0, 2, 0), (0, 0, 2)), 2.083333333333333, 1, 0),
        [
            (((0, 3, 0), (0, 0, 2), (2, 0, 0)), 0, []),
            (((1, 0, 2), (0, 2, 0), (1, 0, 1)), 0, []),
            (((3, 0, 0), (2, 0, 0), (2, 0, 0)), 1, [
                ("condition-(i)", 0, None, 7.0, 1.0),
                ("condition-(ii)-DP", 1, 0, 7.0, 1.0),
                ("condition-(ii)-IP", 1, 0, 7.0, 1.0),
                ("condition-(ii)-DP", 2, 0, 7.0, 1.0),
                ("condition-(ii)-IP", 2, 0, 7.0, 1.0)]),
        ],
    ),
    (
        ((6, 2, 1, 1), 1.0, 1.0, 0.3),
        [
            (((3, 0, 0, 3), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0)), 2.7237156511350054),
            (((3, 0, 1, 2), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 2.7521786492374725),
            (((3, 0, 2, 1), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 2.7521786492374725),
            (((3, 0, 3, 0), (0, 2, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1)), 2.723715651135006),
            (((3, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 2.715141612200436),
            (((3, 2, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)), 2.715141612200436),
            (((3, 3, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1)), 2.6866786140979686),
        ],
        (2.7521786492374725, 2.6866786140979686, 1.0243795572703789, -0.37499999999999994,
         None, 7),
        (((3, 0, 1, 2), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 2.7521786492374725, 1, 3),
        [
            (((0, 6, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1), (1, 0, 0, 0)), 0, [
                ("condition-(ii)-DP", 0, 1, 4.199999999999999, 0.8899999999999999),
                ("condition-(ii)-IP", 0, 1, 4.199999999999999, 1.4)]),
            (((3, 0, 0, 3), (0, 1, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)), 2, [
                ("condition-(i)", 0, None, 2.59, 1.7),
                ("condition-(ii)-IP", 0, 3, 2.0999999999999996, 1.4),
                ("condition-(ii)-DP", 2, 1, 1.7, 0.8899999999999999),
                ("condition-(ii)-IP", 2, 1, 1.7, 1.4),
                ("condition-(ii)-DP", 3, 0, 3.7, 1.8699999999999994),
                ("condition-(ii)-IP", 3, 0, 3.7, 1.4)]),
            (((6, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)), 1, [
                ("condition-(i)", 0, None, 6.16, 1.0),
                ("condition-(ii)-DP", 1, 0, 8.8, 0.39999999999999997),
                ("condition-(ii)-IP", 1, 0, 8.8, 0.7),
                ("condition-(ii)-DP", 2, 0, 8.8, 0.39999999999999997),
                ("condition-(ii)-IP", 2, 0, 8.8, 0.7),
                ("condition-(ii)-DP", 3, 0, 8.8, 0.39999999999999997),
                ("condition-(ii)-IP", 3, 0, 8.8, 0.7)]),
        ],
    ),
    (
        ((2, 1, 1, 1), 0.5, 1.0, 0.0),
        (132, ((0, 0, 0, 2), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
         ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         {1.4999999999999998: 99, 1.5: 33},
         "077fa31290e1d3783aaaeca1aeedb6db58ff3919c2b91bd541144ef22f272b6f"),
        (1.4999999999999998, 1.4999999999999998, 1.0, -0.6875, None, 132),
        (((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1.4999999999999998, 1, 0),
        [
            (((0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)), 0, []),
            (((1, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)), 1, []),
            (((2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)), 1, [
                ("condition-(i)", 0, None, 5.0, 1.0),
                ("condition-(ii)-DP", 1, 0, 5.0, 1.0),
                ("condition-(ii)-IP", 1, 0, 5.0, 1.0),
                ("condition-(ii)-DP", 2, 0, 5.0, 1.0),
                ("condition-(ii)-IP", 2, 0, 5.0, 1.0),
                ("condition-(ii)-DP", 3, 0, 5.0, 1.0),
                ("condition-(ii)-IP", 3, 0, 5.0, 1.0)]),
        ],
    ),
]


@pytest.mark.parametrize("params, nes, poa, optimum, verdicts", FROZEN_ENGINE)
def test_enumeration_engine_frozen_output(params, nes, poa, optimum, verdicts):
    inst = ln.Instance(*params)
    got = [(p.flow, s.total_traffic) for p, s in ln.enumerate_nash(inst)]
    if isinstance(nes, list):
        assert got == nes
    else:
        count, first, last, traffic, digest = nes
        assert (len(got), got[0][0], got[-1][0]) == (count, first, last)
        assert collections.Counter(tr for _, tr in got) == traffic
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest
    rep = ln.poa_report(inst)
    assert (rep.tr_opt, rep.tr_worst_ne, rep.poa_exact, rep.z, rep.poa_bound,
            rep.ne_count) == poa
    opt = ln.brute_force_optimal(inst)
    assert (opt.profile.flow, opt.tr, opt.threshold, opt.b) == optimum
    for flow, i_star, violations in verdicts:
        v = ln.is_nash_characterization(inst, ln.RoutingProfile(flow))
        assert v.is_ne == (not violations) and v.i_star == i_star
        assert [(x.kind, x.source, x.relay, x.lhs, x.rhs) for x in v.violations] == violations


def conditions_shapes():
    """Count vectors for the scalar/block comparison: every one with m <= 2 and
    at most 6 users per source, then the non-increasing ones with m = 3 (at most
    6 per source, 9 in all) and m = 4 (at most 3 per source, 6 in all)."""
    shapes = [c for m in (1, 2) for c in itertools.product(range(1, 7), repeat=m)]
    for m, per_source, total in ((3, 6, 9), (4, 3, 6)):
        shapes += [c for c in itertools.product(range(per_source, 0, -1), repeat=m)
                   if list(c) == sorted(c, reverse=True) and sum(c) <= total]
    return shapes


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0, random.Random(11).random()])
def test_scalar_and_block_conditions_flag_the_same_violations(q):
    """(i) and (ii) have one copy: on every profile, the scalar verdict lists
    exactly the conditions the block path flags in that profile's column, with
    the same i_star and the same bits on both sides of each inequality."""
    for counts in conditions_shapes():
        inst = ln.Instance(counts, 1.0, 1.5, q)
        for blk in profile_blocks(inst):
            load, entries = _conditions(inst, blk)
            i_star = np.argmin(load, axis=0).tolist()
            flagged = [[] for _ in range(blk.shape[2])]
            for kind, i, l, lhs, rhs, bad in entries:
                lhs, rhs = lhs.tolist(), rhs.tolist()
                for c in np.flatnonzero(bad).tolist():
                    flagged[c].append((kind, i, None if i == l else l, lhs[c].hex(), rhs[c].hex()))
            for c, flow in enumerate(blk.transpose(2, 0, 1).tolist()):
                v = ln.is_nash_characterization(inst, ln.RoutingProfile(flow))
                assert v.i_star == i_star[c]
                got = [(x.kind, x.source, x.relay, x.lhs.hex(), x.rhs.hex()) for x in v.violations]
                assert got == flagged[c], (inst, flow)


def test_move_scan_rates_are_link_rate_bits():
    """Link r2's moved rate is the bits `traffic_rates` gives link r2 with one
    more source-i user on it, in the instance with one more user at source i."""
    rng = random.Random(10)
    for _ in range(1500):
        inst = random_instance(rng, m_choices=(1, 2, 3, 4, 5), n_max=6,
                               mu_choices=(0.3, 1.0, 2.5, 7.0),
                               q_choices=(0.0, 0.3, 1.0, rng.random()),
                               phi=rng.choice((0.5, 1.0, 1.7)))
        prof = random_profile(rng, inst)
        for i in range(inst.m):
            rates = _moved_rates(inst, prof.flow, i)
            assert len(rates) == inst.m
            counts = [n + (k == i) for k, n in enumerate(inst.user_counts)]
            grown = ln.Instance(counts, inst.phi, inst.mu, inst.q)
            for r2, rate in enumerate(rates):
                flow = [list(row) for row in prof.flow]
                flow[i][r2] += 1
                assert rate == ln.traffic_rates(grown, ln.RoutingProfile(flow))[r2], (inst, prof)


def test_deviation_oracle_equals_its_definition():
    """The oracle's verdict, violations and their values included, is the one
    the definitional reference builds from every moved profile."""
    rng = random.Random(30)
    for _ in range(1200):
        inst = random_instance(rng, m_choices=(1, 2, 3, 4, 5), n_max=5,
                               mu_choices=(0.3, 1.0, 2.5, 7.0),
                               q_choices=(0.0, 0.3, 1.0, rng.random()),
                               phi=rng.choice((0.5, 1.0, 1.7)))
        for prof in (ln.RoutingProfile.all_direct(inst), random_profile(rng, inst)):
            assert ln.is_nash_deviation_oracle(inst, prof) == reference_oracle(inst, prof), (
                inst, prof)
