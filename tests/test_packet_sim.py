import math

import numpy as np
import pytest
from scipy import stats

import lossnet as ln
from lossnet.errors import InvalidInputError
from lossnet.packet_sim import assess_outcome


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
