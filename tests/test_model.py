import hashlib
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

import lossnet as ln
from lossnet.errors import CapacityError, InvalidInputError
from lossnet.model import delivered, link_rates, profile_blocks
from lossnet.two_source import TwoSourceState, classify

from conftest import moved, random_instance, random_profile


def test_traffic_rates_all_direct():
    inst = ln.Instance((2, 1), 1.0, 2.0, 0.5)
    prof = ln.RoutingProfile(((2, 0), (0, 1)))
    assert ln.traffic_rates(inst, prof) == (2.0, 1.0)


def test_traffic_rates_mixed():
    inst = ln.Instance((2, 1), 1.0, 2.0, 0.5)
    prof = ln.RoutingProfile(((1, 1), (0, 1)))
    t = ln.traffic_rates(inst, prof)
    assert t[0] == pytest.approx(1.0, abs=1e-12)
    assert t[1] == pytest.approx(1.5, abs=1e-12)  # 1*1 + 1*0.5*1


def test_traffic_rates_q1_kills_relay():
    rng = random.Random(1)
    for _ in range(20):
        inst = random_instance(rng, q_choices=(1.0,))
        prof = random_profile(rng, inst)
        t = ln.traffic_rates(inst, prof)
        for i in range(inst.m):
            assert t[i] == prof.flow[i][i] * inst.phi


def test_loss_rate_direct_half():
    # offered rate T equals mu: the busy probability is exactly one half
    inst = ln.Instance((1,), 1.0, 1.0, 0.0)
    prof = ln.RoutingProfile(((1,),))
    assert ln.loss_rate(inst, prof, 0, 0) == pytest.approx(0.5, abs=1e-12)


def test_loss_rate_q1_indirect_total():
    inst = ln.Instance((2, 1), 1.0, 2.0, 1.0)
    prof = ln.RoutingProfile.all_direct(inst)
    assert ln.loss_rate(inst, prof, 0, 1) == pytest.approx(inst.phi, abs=1e-12)


def test_loss_rate_mixed_value():
    inst = ln.Instance((2, 1), 1.0, 2.0, 0.5)
    prof = ln.RoutingProfile(((1, 1), (0, 1)))
    # 0.5 + 0.5 * (1.5 / 3.5)
    assert ln.loss_rate(inst, prof, 0, 1) == pytest.approx(0.7142857142857143, rel=1e-12)


def test_loss_rate_bad_index():
    inst = ln.Instance((2, 1), 1.0, 2.0, 0.5)
    prof = ln.RoutingProfile.all_direct(inst)
    with pytest.raises(InvalidInputError):
        ln.loss_rate(inst, prof, 2, 0)
    with pytest.raises(InvalidInputError):
        ln.loss_rate(inst, prof, 0, -1)


def test_total_traffic_value():
    inst = ln.Instance((2, 1), 1.0, 2.0, 0.5)
    prof = ln.RoutingProfile.all_direct(inst)  # T = (2, 1)
    assert ln.total_traffic(inst, prof) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_total_traffic_zero_when_everything_relayed_and_lost():
    inst = ln.Instance((1, 1), 1.0, 1.0, 1.0)
    swap = ln.RoutingProfile(((0, 1), (1, 0)))
    assert ln.total_traffic(inst, swap) == 0.0


def test_link_and_user_accounting_agree():
    # Delivered-rate total equals the per-user view sum(phi - loss_rate).
    rng = random.Random(7)
    for _ in range(1000):
        inst = random_instance(
            rng, m_choices=(1, 2, 3, 4, 5), n_max=20,
            mu_choices=(0.3, 1.0, 2.5, 7.0),
            q_choices=(0.0, 0.2, 0.5, 0.8, 1.0),
        )
        prof = random_profile(rng, inst)
        by_links = ln.total_traffic(inst, prof)
        by_users = 0.0
        for i in range(inst.m):
            for r in range(inst.m):
                if prof.flow[i][r]:
                    by_users += prof.flow[i][r] * (inst.phi - ln.loss_rate(inst, prof, i, r))
        assert by_users == pytest.approx(by_links, rel=1e-9, abs=1e-12)


def test_link_rates_on_stacked_profiles_match_scalar_bits():
    # One formula on ints and on a (m, m, k) array: equal with ==, not approx.
    rng = random.Random(21)
    for _ in range(60):
        inst = random_instance(
            rng, m_choices=(1, 2, 3, 4, 5), n_max=40, mu_choices=(0.3, 1.0, 7.0),
            q_choices=(0.0, 0.3, rng.random()), phi=rng.choice((0.37, 1.3, 2.9)),
        )
        profs = [random_profile(rng, inst) for _ in range(rng.randint(1, 12))]
        flow = np.array([p.flow for p in profs], dtype=np.int64).transpose(1, 2, 0)
        rates = link_rates(inst, flow)
        tr = delivered(inst, rates)
        for k, prof in enumerate(profs):
            assert tuple(float(t[k]) for t in rates) == ln.traffic_rates(inst, prof)
            assert float(tr[k]) == ln.total_traffic(inst, prof)
            assert delivered(inst, link_rates(inst, prof.flow)) == ln.total_traffic(inst, prof)


def test_summarize_consistency():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    s = ln.summarize(inst, prof)
    assert s.t == ln.traffic_rates(inst, prof)
    assert s.total_traffic == pytest.approx(ln.total_traffic(inst, prof), rel=1e-12)


def test_no_congestion_prob_unit_interval():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, m_choices=(1, 2, 3, 4), n_max=15)
        prof = random_profile(rng, inst)
        summary = ln.summarize(inst, prof)
        for t in summary.t:
            assert 0.0 <= t <= inst.n * inst.phi + 1e-12


def test_total_traffic_monotone_in_direct_users_at_q1():
    # At q = 1 moving a relayed user onto its direct path strictly helps.
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, q_choices=(1.0,))
        prof = random_profile(rng, inst)
        edges = [(i, r) for i in range(inst.m) for r in range(inst.m)
                 if i != r and prof.flow[i][r] >= 1]
        if not edges:
            continue
        i, r = edges[0]
        assert ln.total_traffic(inst, moved(prof, i, r, i)) > ln.total_traffic(inst, prof)


def test_profile_row_sums_enforced():
    inst = ln.Instance((2, 1), 1.0, 1.0, 0.5)
    bad = ln.RoutingProfile(((1, 0), (0, 1)))
    with pytest.raises(InvalidInputError):
        bad.validate_for(inst)
    with pytest.raises(InvalidInputError):
        ln.traffic_rates(inst, bad)


def test_profile_dimension_mismatch():
    inst = ln.Instance((2, 1, 1), 1.0, 1.0, 0.5)
    prof = ln.RoutingProfile(((2, 0), (0, 1)))
    with pytest.raises(InvalidInputError):
        ln.traffic_rates(inst, prof)


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        ln.Instance((), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        ln.Instance((0, 2), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        ln.Instance((1,), 0.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        ln.Instance((1,), 1.0, -1.0, 0.5)
    with pytest.raises(InvalidInputError):
        ln.Instance((1,), 1.0, 1.0, 1.5)
    with pytest.raises(InvalidInputError, match=r"user_counts\[0\]"):
        ln.Instance((1.5,), 1.0, 1.0, 0.5)


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        ln.RoutingProfile(((1, 0), (0,)))
    with pytest.raises(InvalidInputError):
        ln.RoutingProfile(((-1, 1), (0, 1)))
    with pytest.raises(InvalidInputError, match="flow"):
        ln.RoutingProfile(())


def test_canonicalized_sorts_and_maps_back():
    inst = ln.Instance((2, 5, 5, 1), 1.0, 1.0, 0.3)
    canon, perm = inst.canonicalized()
    assert canon.user_counts == (5, 5, 2, 1)
    assert perm == (1, 2, 0, 3)
    assert tuple(inst.user_counts[p] for p in perm) == canon.user_counts
    # An instance already in order is its own canonical form.
    assert canon.canonicalized() == (canon, (0, 1, 2, 3))
    assert canon.canonicalized()[0] is canon


def test_iter_profiles_lexicographic_and_counted():
    # The second instance spans many blocks, and its last row (5151
    # compositions) is longer than one block.
    for counts, total in (((2, 1), 6), ((1, 1, 100), 46_359)):
        inst = ln.Instance(counts, 1.0, 1.0, 0.5)
        profs = list(ln.iter_profiles(inst))
        assert len(profs) == ln.count_profiles(inst) == total
        flats = [tuple(x for row in p.flow for x in row) for p in profs]
        assert flats == sorted(set(flats))
        for p in profs:
            p.validate_for(inst)


def test_iter_profiles_is_lazy_on_a_huge_profile_space():
    inst = ln.Instance((10**6,) * 3, 1.0, 1.0, 0.3)
    assert ln.count_profiles(inst) > 2**63
    start = time.perf_counter()
    assert next(ln.iter_profiles(inst)).flow == ((0, 0, 10**6),) * 3
    assert time.perf_counter() - start < 0.5
    with pytest.raises(CapacityError):
        ln.enumerate_nash(inst)
    with pytest.raises(CapacityError):
        ln.brute_force_optimal(inst)


# sha256 of each profile_blocks sequence (every block's dtype, shape and
# bytes, in order), frozen from the implementation that walked the heads one
# composition at a time, with the block count.  The shapes cover m = 1, 2 and
# 4, last rows longer than a block (one head per block), head groups that span
# several leading compositions, and leading rows longer than a block.
FROZEN_BLOCKS = [
    ((7,), 1, "faef0c50a78eaa636a7b72b2011e54066514a847b17adf9d773018efbe3f08ca"),
    ((7, 3), 1, "b687d62d1c3e1fa19cfd38bbd59e42a7b18b173eacb3df2aa81e9fd54df154c3"),
    ((1500, 2), 5, "23da9d11ee00bb5b8208329bcc5e830c75a62b34cf5ccd6f5ce90b2b88bd352e"),
    ((1, 1, 100), 54, "8694a15847252e5638387a90ac3304d4a69a0a6852b03f9675784db00a37fdb7"),
    ((2, 2, 50), 72, "d6ba88b06bf8fc657b91630ed9bd31d77bb676ab6e8c3b90a0ab748c8d941c7b"),
    ((9, 5, 3), 12, "397a83cbbd380d748c0c4c04552ee4dfe1c13f379b5ac0da940ad1d9efaf28c9"),
    ((6, 5, 5), 13, "422190b52d92b5472c63e0f1c72e3444db6f372090c46f8f0ea4e1e9b1818685"),
    ((2, 45, 1), 20, "c50799da0c2b230af13b275b5d825ae7da11c2caee175f99cca8bf3b6986aa54"),
    ((3, 2, 2, 2), 20, "c328844662dae9c76e07635de3f0dee87f521ab6a448e03fd47f3b8502580c33"),
    ((2, 5, 5, 1), 123, "1fb6fa6f1a9b45ca1ea765cbb161e0439272041022b277cd064316e0f9de4759"),
]


@pytest.mark.parametrize("counts, n_blocks, digest", FROZEN_BLOCKS)
def test_profile_blocks_frozen_bytes(counts, n_blocks, digest):
    h, seen = hashlib.sha256(), 0
    for blk in profile_blocks(ln.Instance(counts, 1.0, 1.0, 0.5)):
        assert blk.flags.c_contiguous
        h.update(f"{blk.dtype.str}{blk.shape}".encode())
        h.update(blk.tobytes())
        seen += 1
    assert (seen, h.hexdigest()) == (n_blocks, digest)


def test_first_profile_memory_does_not_grow_as_m_cubed():
    # Every level of the row recursion holds one block; with blocks of 1024
    # profiles at any m, the first of 30 one-user sources peaked at 121 MB.
    tracemalloc.start()
    try:
        first = next(ln.iter_profiles(ln.Instance((1,) * 30, 1.0, 1.0, 0.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert first.flow == tuple(tuple(int(j == 29) for j in range(30)) for _ in range(30))


def test_counts_beyond_int64_arithmetic_are_rejected():
    inst = ln.Instance((2**63, 1), 1.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match="int64"):
        next(ln.iter_profiles(inst))
    # The characterization runs on Python ints, so it still decides here.
    verdict = ln.is_nash_characterization(inst, ln.RoutingProfile.all_direct(inst))
    assert verdict.is_ne == classify(inst, TwoSourceState(2**63, 1)).is_ne is False
    assert [v.kind for v in verdict.violations] == ["condition-(i)"]


def test_counts_beyond_float_arithmetic_are_rejected():
    with pytest.raises(InvalidInputError, match="float"):
        ln.Instance((10**400, 1), 1.0, 1.0, 0.5)
    inst = ln.Instance((2**1022, 1), 1.0, 1.0, 0.5)
    assert not ln.is_nash_characterization(inst, ln.RoutingProfile.all_direct(inst)).is_ne


@pytest.mark.parametrize("counts, phi, mu, product", [
    ((3, 2), 1e308, 1e308, "n*phi*mu"),
    ((10**155, 10**154), 1.0, 1e155, "n*phi*mu"),
    ((3, 2), 1e200, 1e-200, "n*phi**2"),
    ((3, 2), 1e-308, 1e308, "q*mu/phi"),
])
def test_products_beyond_float_arithmetic_are_rejected(counts, phi, mu, product):
    # Each factor is finite; the product formed from them is not.
    with pytest.raises(InvalidInputError, match=re.escape(product)):
        ln.Instance(counts, phi, mu, 0.5)


def test_instance_json_round_trip():
    inst = ln.Instance((3, 2), 1.0, 2.0, 0.25)
    assert ln.instance_from_json(ln.instance_to_json(inst)) == inst
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    assert ln.profile_from_json(ln.profile_to_json(prof)) == prof


def test_instance_json_names_first_bad_field():
    with pytest.raises(InvalidInputError, match="'m'"):
        ln.instance_from_json({"n": [1], "phi": 1, "mu": 1, "q": 0})
    with pytest.raises(InvalidInputError, match=r"n\[1\]"):
        ln.instance_from_json({"m": 2, "n": [1, 0], "phi": 1, "mu": 1, "q": 0})
    with pytest.raises(InvalidInputError, match="'q'"):
        ln.instance_from_json({"m": 1, "n": [1], "phi": 1, "mu": 1, "q": "x"})
    with pytest.raises(InvalidInputError, match="flow"):
        ln.profile_from_json({"flow": [[1, "a"]]})
    good = {"m": 2, "n": [3, 2], "phi": 1, "mu": 1, "q": 0}
    for obj, field in (([1, 2], "JSON object"), ({**good, "m": 0}, "'m'"),
                       ({**good, "m": True}, "'m'"), ({**good, "n": 3}, "'n'"),
                       ({**good, "n": [3, 2, 1]}, "'n'")):
        with pytest.raises(InvalidInputError, match=field):
            ln.instance_from_json(obj)
    for flow, field in (([], "'flow'"), ([[1, 2], 3], r"flow\[1\]")):
        with pytest.raises(InvalidInputError, match=field):
            ln.profile_from_json({"flow": flow})


def test_aggregates():
    prof = ln.RoutingProfile(((2, 1, 0), (1, 1, 1), (0, 0, 2)))
    assert prof.u() == (2, 1, 2)
    assert prof.v() == (1, 1, 1)
    # At phi = 1 and q = 0 a link's rate is the number of users it carries.
    assert ln.traffic_rates(ln.Instance((3, 3, 2), 1.0, 1.0, 0.0), prof) == (3, 2, 3)
