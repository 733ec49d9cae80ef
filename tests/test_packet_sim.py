import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import lossnet as ln
from lossnet.errors import InvalidInputError
from lossnet import packet_sim
from lossnet.packet_sim import _scan_link, assess_outcome


def small_cfg(horizon=20_000.0, seed=0, q=0.3):
    inst = ln.Instance((3, 2), 1.0, 1.0, q)
    prof = ln.RoutingProfile.all_direct(inst)
    return ln.SimConfig(inst, prof, horizon, seed)


def test_seed_determinism_bit_for_bit():
    a = ln.simulate(small_cfg(seed=42))
    b = ln.simulate(small_cfg(seed=42))
    assert a == b
    c = ln.simulate(small_cfg(seed=43))
    assert c != a


def test_packet_conservation_every_class():
    out = ln.simulate(small_cfg(seed=5))
    for key, c in out.per_class.items():
        assert c.generated == c.sidelink_lost + c.congestion_lost + c.delivered, key


def test_certain_sidelink_loss_kills_indirect_classes():
    inst = ln.Instance((1, 1), 1.0, 1.0, 1.0)
    swap = ln.RoutingProfile(((0, 1), (1, 0)))
    out = ln.simulate(ln.SimConfig(inst, swap, 5_000.0, 7))
    for key, c in out.per_class.items():
        assert c.delivered == 0 and c.congestion_lost == 0
        assert c.sidelink_lost == c.generated
    assert out.empirical_tr == 0.0


def test_single_link_blocking_matches_closed_form():
    # Offered rate equal to the service rate: blocking probability one half.
    inst = ln.Instance((1,), 1.0, 1.0, 0.0)
    prof = ln.RoutingProfile(((1,),))
    out = ln.simulate(ln.SimConfig(inst, prof, 200_000.0, 11))
    lc = out.per_link[0]
    assert abs(lc.empirical_block_prob - 0.5) <= 3.0 * lc.std_err
    assert 0.0 <= lc.empirical_block_prob <= 1.0


def test_unused_link_reports_zero_block_probability():
    inst = ln.Instance((1, 1), 1.0, 1.0, 0.2)
    prof = ln.RoutingProfile(((0, 1), (0, 1)))  # nothing ever reaches link 0
    out = ln.simulate(ln.SimConfig(inst, prof, 2_000.0, 3))
    assert out.per_link[0].offered == 0
    assert out.per_link[0].empirical_block_prob == 0.0
    report = ln.validate_analytics(ln.SimConfig(inst, prof, 2_000.0, 3))
    link0 = [c for c in report.checks if c.kind == "link-blocking" and c.key == (0,)]
    assert link0[0].passed


def test_empirical_total_traffic_tracks_closed_form():
    cfg = ln.SimConfig(
        ln.Instance((3, 2), 1.0, 1.0, 0.3),
        ln.RoutingProfile.all_direct(ln.Instance((3, 2), 1.0, 1.0, 0.3)),
        1_000_000.0,
        17,
    )
    out = ln.simulate(cfg)
    analytic = ln.total_traffic(cfg.instance, cfg.profile)
    assert abs(out.empirical_tr - analytic) / analytic <= 0.01


def test_validation_passes_with_true_rates_and_fails_negative_control():
    cfg = small_cfg(horizon=100_000.0, seed=23)
    out = ln.simulate(cfg)
    rates = ln.traffic_rates(cfg.instance, cfg.profile)
    good = assess_outcome(cfg.instance, cfg.profile, out, rates, 3.0)
    assert good.passed
    wrong = tuple(t + 1.0 for t in rates)
    bad = assess_outcome(cfg.instance, cfg.profile, out, wrong, 3.0)
    assert not bad.passed
    assert any(c.kind == "link-blocking" and not c.passed for c in bad.checks)


def test_validate_analytics_covers_indirect_classes():
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    report = ln.validate_analytics(ln.SimConfig(inst, prof, 200_000.0, 29))
    kinds = {(c.kind, c.key) for c in report.checks}
    assert ("class-loss", (0, 1)) in kinds
    assert report.passed, report.failures()


def test_merged_stream_is_poisson_with_summed_rate():
    # c independent user streams of rate phi merge into one stream of rate
    # c * phi; Kolmogorov-Smirnov on the inter-arrival gaps at the 1% level.
    rng = np.random.default_rng(101)
    c, phi, horizon = 4, 1.0, 50_000.0
    streams = [
        np.cumsum(rng.exponential(1.0 / phi, size=int(phi * horizon * 1.3)))
        for _ in range(c)
    ]
    merged = np.sort(np.concatenate([s[s < horizon] for s in streams]))
    gaps = np.diff(merged)
    res = stats.kstest(gaps, "expon", args=(0.0, 1.0 / (c * phi)))
    assert res.pvalue >= 0.01


def test_config_validation():
    inst = ln.Instance((2,), 1.0, 1.0, 0.0)
    prof = ln.RoutingProfile(((2,),))
    with pytest.raises(InvalidInputError):
        ln.SimConfig(inst, prof, 0.0, 1)
    with pytest.raises(InvalidInputError):
        ln.SimConfig(inst, prof, 10.0, -1)
    bad_prof = ln.RoutingProfile(((1,),))
    with pytest.raises(InvalidInputError):
        ln.SimConfig(inst, bad_prof, 10.0, 1)


def test_warmup_excluded_from_counters():
    # With a warmup slice of 1%, counted arrivals must undershoot the raw
    # expectation accordingly (within 5 sigma of the thinned mean).
    cfg = small_cfg(horizon=100_000.0, seed=31)
    out = ln.simulate(cfg)
    span = cfg.horizon * (1.0 - 0.01)
    for (i, r), c in out.per_class.items():
        rate = cfg.profile.flow[i][r] * cfg.instance.phi
        mean = rate * span
        assert abs(c.generated - mean) <= 5.0 * math.sqrt(mean)


@pytest.mark.parametrize("sigmas", [-1.0, math.nan])
def test_validate_analytics_rejects_bad_sigmas_before_simulating(monkeypatch, sigmas):
    def no_simulation(cfg):
        raise AssertionError("simulate ran before tolerance_sigmas was checked")

    monkeypatch.setattr(ln.packet_sim, "simulate", no_simulation)
    with pytest.raises(InvalidInputError):
        ln.validate_analytics(small_cfg(horizon=1e9), sigmas)


def test_zero_observed_losses_pass_validation():
    # About 50 arrivals per link at blocking probability 1/101: most runs see
    # no loss at all, which must not count as an infinite-sigma miss.
    inst = ln.Instance((1, 1), 1.0, 100.0, 0.0)
    prof = ln.RoutingProfile.all_direct(inst)
    passed = sum(
        ln.validate_analytics(ln.SimConfig(inst, prof, 50.0, seed), 3.0).passed
        for seed in range(50)
    )
    assert passed >= 45


def _scalar_accepted(times, services):
    """Reference busy/idle loop, services indexed by arrival."""
    busy_until, accepted = -math.inf, []
    for k, (t, s) in enumerate(zip(times.tolist(), services.tolist())):
        if t >= busy_until:
            busy_until = t + s
            accepted.append(k)
    return accepted, busy_until


def _windowed_accepted(times, services, edges):
    """_scan_link run window by window between time edges, carrying busy_until."""
    busy_until, accepted = -math.inf, []
    cuts = np.searchsorted(times, edges)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        acc, busy_until = _scan_link(times[lo:hi], services[lo:hi], busy_until)
        accepted += (lo + np.flatnonzero(acc)).tolist()
    return accepted, busy_until


@pytest.mark.parametrize("mean_service", [0.1, 1.0, 10.0, 300.0])
def test_windowed_scan_matches_scalar_reference(mean_service):
    # Windows of 20 time units at arrival rate 1; a mean service of 300
    # spans many windows.  The edge 500 is repeated to give an empty window.
    rng = np.random.default_rng(int(mean_service * 10))
    times = np.cumsum(rng.exponential(1.0, size=3000))
    services = rng.exponential(mean_service, size=3000)
    edges = np.concatenate([np.arange(0.0, 500.0, 20.0), [500.0, 500.0],
                            np.arange(520.0, times[-1] + 20.0, 20.0)])
    assert _windowed_accepted(times, services, edges) == _scalar_accepted(times, services)


def test_windowed_scan_float_ties_and_empty_windows():
    # At t = 1e17 the float spacing is 16, so a short service gives
    # t + s == t and the next arrival at the same instant finds the link idle.
    rng = np.random.default_rng(5)
    times = np.sort(1e17 + 16.0 * rng.integers(0, 400, size=2000))
    services = np.where(rng.random(2000) < 0.9, rng.exponential(1.0, 2000), 100.0)
    ref = _scalar_accepted(times, services)
    assert sum(times[a] == times[b] for a, b in zip(ref[0], ref[0][1:])) > 100
    edges = np.concatenate([[0.0, 1.0], 1e17 + 16.0 * np.arange(0, 420, 7)])
    assert _windowed_accepted(times, services, edges) == ref
    acc, busy_until = _scan_link(np.empty(0), np.empty(0), 3.5)
    assert acc.shape == (0,) and busy_until == 3.5


def test_window_edges_keep_statistics(monkeypatch):
    # 64 expected packets per window: busy periods cross thousands of edges.
    monkeypatch.setattr(packet_sim, "WINDOW", 64)
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    rates = ln.traffic_rates(inst, prof)
    passed = 0
    for seed in range(20):
        out = ln.simulate(ln.SimConfig(inst, prof, 10_000.0, seed))
        for key, c in out.per_class.items():
            assert c.generated == c.sidelink_lost + c.congestion_lost + c.delivered, key
        passed += assess_outcome(inst, prof, out, rates, 3.0).passed
    assert passed >= 19
    # One service lasts about 1e5, some 1,500 windows of 64 time units.
    slow = ln.Instance((1,), 1.0, 1e-5, 0.0)
    report = ln.validate_analytics(ln.SimConfig(slow, ln.RoutingProfile(((1,),)), 1e6, 0), 3.0)
    link = [c for c in report.checks if c.kind == "link-blocking"][0]
    assert link.expected == 1.0 / (1.0 + 1e-5) and link.passed, link


def test_memory_does_not_grow_with_horizon():
    # 5e6 arrivals; holding them all would take about 100 MB.
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.5)
    cfg = ln.SimConfig(inst, ln.RoutingProfile.all_direct(inst), 1_000_000.0, 0)
    tracemalloc.start()
    try:
        ln.simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
