import functools
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lossnet as ln
from lossnet import optimizer
from lossnet.errors import CapacityError, InternalCheckError, InvalidInputError
from lossnet.optimizer import OptimalSolution, _donor_pop, _flow, _receiver_pops, _splits

from conftest import exact_traffic, random_instance

#: Property tests draw the same examples on every run and keep no database.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_frozen_optimum_4_1():
    # Expected values fixed by exhaustive enumeration before the solver was built.
    inst = ln.Instance((4, 1), 1.0, 1.0, 0.5)
    sol = ln.solve_optimal(inst)
    ref = ln.brute_force_optimal(inst)
    assert ref.tr == pytest.approx(1.35, abs=1e-12)
    assert sol.tr == pytest.approx(ref.tr, rel=1e-9)
    assert sol.u == ref.u == (3, 1)
    assert sol.v == ref.v == (0, 1)
    assert sol.b == 1


def test_q1_returns_all_direct_exactly():
    rng = random.Random(2)
    for _ in range(20):
        inst = random_instance(rng, m_choices=(1, 2, 3), q_choices=(1.0,))
        sol = ln.solve_optimal(inst)
        assert sol.u == inst.user_counts
        assert sol.v == tuple([0] * inst.m)


def test_q0_balances_loads():
    inst = ln.Instance((3, 1), 1.0, 1.0, 0.0)
    sol = ln.solve_optimal(inst)
    assert ln.traffic_rates(inst, sol.profile) == (2, 2)  # users per link at q = 0, phi = 1
    assert sol.u == (2, 1) and sol.v == (0, 1)
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, m_choices=(2, 3, 4), q_choices=(0.0,))
        y = ln.traffic_rates(inst, ln.solve_optimal(inst).profile)
        assert max(y) - min(y) <= 1


@pytest.mark.parametrize("phi", [1.0, 0.3, 1 / 3, 2.8248423680172383])
@pytest.mark.parametrize("mu", [0.1, 1.0, 7.0])
def test_q0_pop_that_only_swaps_loads_is_not_taken(phi, mu):
    # At q = 0 the third pop moves direct loads (6, 5) to (5, 6): it gains
    # nothing in exact arithmetic, and the tie rule keeps the lower B.
    sol = ln.solve_optimal(ln.Instance((8, 3), phi, mu, 0.0))
    assert (sol.b, sol.profile.flow) == (2, ((6, 2), (0, 3)))


@pytest.mark.parametrize(
    "counts, mu, q, u, v, flow, threshold, b, tr",
    [
        # q = 0 ties across several donors and receivers: the lowest index wins.
        ((6, 6, 1, 1, 1), 1.0, 0.0, (3, 3, 1, 1, 1), (0, 0, 2, 2, 2),
         ((3, 0, 2, 1, 0), (0, 3, 0, 1, 2), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
          (0, 0, 0, 0, 1)), 2, 6, 3.75),
        # Unsorted counts: the answer is relabelled to the instance's order.
        ((2, 7, 7, 3, 1), 1.0, 0.0, (2, 4, 4, 3, 1), (2, 0, 0, 1, 3),
         ((2, 0, 0, 0, 0), (2, 4, 0, 1, 0), (0, 0, 4, 0, 3), (0, 0, 0, 3, 0),
          (0, 0, 0, 0, 1)), 2, 6, 4.0),
        ((12, 2, 12, 2, 2), 1.0, 0.1, (6, 2, 6, 2, 2), (0, 4, 0, 4, 4),
         ((6, 4, 0, 2, 0), (0, 2, 0, 0, 0), (0, 0, 6, 2, 4), (0, 0, 0, 2, 0),
          (0, 0, 0, 0, 2)), 2, 12, 4.259740259740259),
        # Heavy traffic: B = 479,389 beats 479,388 by 2.1e-15 in exact
        # arithmetic (test_heavy_traffic_frozen_row_is_the_exact_optimum).
        ((10**6, 10**5), 10.0, 0.3, (520611, 100000), (0, 479389),
         ((520611, 479389), (0, 100000)), 1, 479389, 19.99957834395356),
    ],
)
def test_solve_optimal_frozen_output(counts, mu, q, u, v, flow, threshold, b, tr):
    # Full output frozen, so any drift in tie order, relabelling or rounding shows.
    sol = ln.solve_optimal(ln.Instance(counts, 1.0, mu, q))
    assert (sol.u, sol.v, sol.profile.flow, sol.threshold, sol.b, sol.tr) == (
        u, v, flow, threshold, b, tr
    )


def test_brute_force_single_source():
    inst = ln.Instance((5,), 2.0, 3.0, 0.7)
    sol = ln.brute_force_optimal(inst)
    assert sol.u == (5,) and sol.v == (0,)
    assert sol.tr == pytest.approx(10.0 * 3.0 / 13.0, rel=1e-12)


def test_brute_force_two_singletons_q0():
    inst = ln.Instance((1, 1), 1.0, 1.0, 0.0)
    sol = ln.brute_force_optimal(inst)
    assert sol.tr == pytest.approx(1.0, rel=1e-12)
    y = ln.traffic_rates(inst, sol.profile)
    assert max(y) - min(y) <= 1


def test_solver_matches_oracle_randomized():
    rng = random.Random(9)
    for _ in range(40):
        inst = random_instance(rng, m_choices=(2, 3), n_max=8)
        a = ln.solve_optimal(inst).tr
        b = ln.brute_force_optimal(inst).tr
        assert a == pytest.approx(b, rel=1e-9)


def test_brute_force_tie_pick_frozen_5_5_5_q0():
    # q = 0 ties every load-balanced profile, and the 9,261 profiles span
    # several blocks; the tie policy (most direct users, then earliest)
    # picks all-direct.
    sol = ln.brute_force_optimal(ln.Instance((5, 5, 5), 1.0, 1.0, 0.0))
    assert (sol.u, sol.v, sol.profile.flow, sol.threshold) == (
        (5, 5, 5), (0, 0, 0), ((5, 0, 0), (0, 5, 0), (0, 0, 5)), 1
    )


def test_brute_force_cap_error_names_cap():
    inst = ln.Instance((30, 30, 30), 1.0, 1.0, 0.5)
    with pytest.raises(CapacityError, match="cap 1000"):
        ln.brute_force_optimal(inst, cap=1000)


def test_structure_all_direct_clean():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.4)
    sol = ln.solve_optimal(ln.Instance((3, 2), 1.0, 1.0, 1.0))
    assert ln.check_optimal_structure(sol) == []


def test_structure_flags_relaying_donor():
    # A source that both keeps users off its direct path and relays for others.
    prof = ln.RoutingProfile(((2, 1), (1, 1)))
    sol = OptimalSolution(prof, tr=0.0, threshold=1)
    viols = ln.check_optimal_structure(sol)
    rules = {(v.rule, v.source) for v in viols}
    assert ("full-or-unrelayed", 0) in rules
    assert ("full-or-unrelayed", 1) in rules


def test_outputs_always_pass_structure_checks():
    rng = random.Random(13)
    for _ in range(40):
        inst = random_instance(rng, m_choices=(1, 2, 3), n_max=7)
        assert ln.check_optimal_structure(ln.solve_optimal(inst)) == []
        assert ln.check_optimal_structure(ln.brute_force_optimal(inst)) == []


def test_optimum_below_closed_form_upper_bound():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng, m_choices=(1, 2, 3, 4), n_max=9)
        tr = ln.solve_optimal(inst).tr
        assert tr <= ln.opt_traffic_upper_bound(inst) + 1e-9


def test_optimum_invariant_under_tied_permutation():
    inst_a = ln.Instance((4, 4, 2), 1.0, 1.0, 0.35)
    inst_b = ln.Instance((4, 2, 4), 1.0, 1.0, 0.35)
    inst_c = ln.Instance((2, 4, 4), 1.0, 1.0, 0.35)
    trs = {round(ln.solve_optimal(i).tr, 12) for i in (inst_a, inst_b, inst_c)}
    assert len(trs) == 1


def test_threshold_within_range_and_profile_consistent():
    rng = random.Random(23)
    for _ in range(30):
        inst = random_instance(rng, m_choices=(1, 2, 3), n_max=6)
        sol = ln.solve_optimal(inst)
        assert 1 <= sol.threshold <= inst.m
        sol.profile.validate_for(inst)
        assert sol.profile.u() == sol.u
        assert sol.profile.v() == sol.v
        assert sol.b == sum(sol.v) == inst.n - sum(sol.u)


@functools.cache
def _splits_by_definition(counts, donors, receivers):
    """The splits s, ascending, that some non-increasing order of `counts`
    realizes: every donor at a 0-based position < s, every receiver at >= s."""
    m = len(counts)
    found = set()
    for order in itertools.permutations(range(m)):
        if any(counts[a] < counts[b] for a, b in zip(order, order[1:])):
            continue
        pos = {i: p for p, i in enumerate(order)}
        for s in range(1, m + 1):
            if all(pos[i] < s for i in donors) and all(pos[i] >= s for i in receivers):
                found.add(s)
    return tuple(sorted(found))


def _donors(counts, u):
    return frozenset(i for i, (n, d) in enumerate(zip(counts, u)) if d < n)


def _receivers(v):
    return frozenset(i for i, r in enumerate(v) if r > 0)


def test_splits_match_their_definition_exhaustively():
    # Every counts tuple with m <= 4 and counts <= 3, every u, every v <= 2.
    for m in range(1, 5):
        for counts in itertools.product(range(1, 4), repeat=m):
            for u in itertools.product(*(range(n + 1) for n in counts)):
                donors = _donors(counts, u)
                for v in itertools.product(range(3), repeat=m):
                    want = _splits_by_definition(counts, donors, _receivers(v))
                    assert tuple(_splits(counts, u, v)) == want, (counts, u, v)


def test_brute_force_threshold_is_the_smallest_realizable_split():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng, m_choices=(1, 2, 3), n_max=4)
        sol = ln.brute_force_optimal(inst)
        counts = inst.user_counts
        want = _splits_by_definition(counts, _donors(counts, sol.u), _receivers(sol.v))
        assert sol.threshold == want[0], inst


def test_flow_lays_donors_over_receivers_in_index_order():
    assert _flow((6, 6, 1, 1, 1), (3, 3, 1, 1, 1), (0, 0, 2, 2, 2)) == [
        [3, 0, 2, 1, 0], [0, 3, 0, 1, 2], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]
    ]


@pytest.mark.parametrize(
    "counts, u, v",
    [
        ((2, 2), (1, 2), (0, 2)),  # one spare user, two relayed in
        ((3, 1), (3, 1), (0, 1)),  # a relayed user that nobody gave up
        ((3, 1), (1, 1), (0, 1)),  # a spare user that nobody takes
        ((2, 2), (1, 1), (1, 1)),  # each source both a donor and a receiver
    ],
)
def test_flow_rejects_unrealizable_aggregates(counts, u, v):
    with pytest.raises(InternalCheckError, match="not realizable"):
        _flow(counts, u, v)


def test_heavy_traffic_frozen_row_is_the_exact_optimum():
    # The frozen row's B against its two neighbours, in exact arithmetic.
    inst = ln.Instance((10**6, 10**5), 1.0, 10.0, 0.3)
    sol = ln.solve_optimal(inst)
    best = exact_traffic(inst, sol.profile.flow)
    for b in (sol.b - 1, sol.b + 1):
        flow = ((10**6 - b, b), (0, 10**5))
        assert exact_traffic(inst, flow) < best, b


def _donor_pops_by_sorting(donors, b):
    """(load, u): the b-th donor pop's direct load and each donor's direct
    users after b pops, from every pop listed and stably sorted."""
    load = np.repeat(np.cumsum(donors), donors) - np.arange(sum(donors))
    order = np.argsort(-load, kind="stable")
    src = np.repeat(np.arange(len(donors)), donors)
    return int(load[order[b - 1]]), np.bincount(src[order[b:]], minlength=len(donors)).tolist()


def _receiver_pops_by_sorting(counts, qbar, b):
    """(takes, load): as `_receiver_pops`, from the first b + 1 loads of every
    receiver listed and stably sorted."""
    loads = (np.asarray(counts)[:, None] + np.arange(b + 1) * qbar).ravel()
    order = np.argsort(loads, kind="stable")[:b]
    return np.bincount(order // (b + 1), minlength=len(counts)).tolist(), float(loads[order[-1]])


def _non_increasing_counts(most):
    """1 to 4 non-increasing user counts, summing to at most `most`."""
    return st.integers(1, 4).flatmap(
        lambda k: st.lists(st.integers(1, most // k), min_size=k, max_size=k)
    ).map(lambda counts: sorted(counts, reverse=True))


@PROPERTY
@given(donors=_non_increasing_counts(10**6), data=st.data())
def test_donor_pop_matches_the_sorted_pops(donors, data):
    b = data.draw(st.integers(1, sum(donors)), label="b")
    level, k, j = _donor_pop(donors, b)
    u = [level - 1] * j + [level] * (k - j) + donors[k:]
    assert (level, u) == _donor_pops_by_sorting(donors, b)


@PROPERTY
@given(
    counts=_non_increasing_counts(10**6),
    q=st.floats(0.0, 0.999),
    # At 2**56 users consecutive doubles are 16 apart, so loads round onto
    # plateaus and the level's exact count can overshoot b.
    offset=st.sampled_from([0, 2**56]),
    data=st.data(),
)
def test_receiver_pops_match_the_sorted_loads(counts, q, offset, data):
    qbar = 1.0 - q
    assume(offset == 0 or qbar >= 0.1)
    counts = [n + offset for n in counts]
    b = data.draw(st.integers(1, 10**6 // len(counts)), label="b")
    assert _receiver_pops(counts, qbar, b) == _receiver_pops_by_sorting(counts, qbar, b)


@PROPERTY
@given(
    counts=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    phi=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
    mu=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 10.0]), st.floats(0.1, 100.0)),
    q=st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
)
def test_solve_optimal_matches_brute_force(counts, phi, mu, q):
    # Where the two maximizers differ, exact arithmetic must call the
    # solver's at least as good: a tie, or a float tie the brute force broke
    # towards more direct users.
    inst = ln.Instance(tuple(counts), phi, mu, q)
    assume(ln.count_profiles(inst) <= 20_000)
    sol, ref = ln.solve_optimal(inst), ln.brute_force_optimal(inst)
    assert ln.check_optimal_structure(sol) == []
    assert exact_traffic(inst, sol.profile.flow) >= exact_traffic(inst, ref.profile.flow)


@pytest.mark.parametrize("counts, mu", [
    ((10**8, 10**7), 10.0),
    (tuple(random.Random(4).randint(900, 1100) for _ in range(100)), 10.0),
])
def test_solve_optimal_at_heavy_traffic_is_small_and_fast(counts, mu):
    # Memory and time do not grow with the user counts: no per-user array.
    inst = ln.Instance(counts, 1.0, mu, 0.3)
    start = time.perf_counter()
    sol = ln.solve_optimal(inst)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        again = ln.solve_optimal(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1e6
    assert again == sol and ln.check_optimal_structure(sol) == []


def test_gain_test_overflow_is_rejected_before_any_work(monkeypatch):
    # n*phi*mu is finite here, but phi*(n*phi + mu)**2, the size of the
    # product-form gain test, is not.  Solved anyway, this returns 8% less
    # traffic than the scale-equivalent instance with mu = 1.
    def no_search(*args):
        raise AssertionError("the gain test ran")

    monkeypatch.setattr(optimizer, "_last_gain", no_search)
    inst = ln.Instance((12 * 10**153, 12 * 10**152), 1.0, 1.2e154, 0.3)
    with pytest.raises(InvalidInputError, match="gain test"):
        ln.solve_optimal(inst)


def test_largest_loads_solve_like_their_scale_equivalent():
    # Scaling phi and mu by one factor scales the traffic and keeps the optimum.
    big = ln.solve_optimal(ln.Instance((10**150, 10**149), 1.0, 1e150, 0.3))
    unit = ln.solve_optimal(ln.Instance((10**150, 10**149), 1e-150, 1.0, 0.3))
    assert big.b == pytest.approx(unit.b, rel=1e-12)
    assert big.tr == pytest.approx(unit.tr * 1e150, rel=1e-12)
