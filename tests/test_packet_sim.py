import functools
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy import stats

import lossnet as ln
from lossnet.errors import InvalidInputError
from lossnet import packet_sim
from lossnet.packet_sim import _cycles, assess_outcome


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


FROZEN_SIMULATE_SEED_7 = {
    "per_class": [
        {"origin": 0, "relay": 0, "generated": 39802, "sidelink_lost": 0,
         "congestion_lost": 26570, "delivered": 13232},
        {"origin": 0, "relay": 1, "generated": 20063, "sidelink_lost": 5996,
         "congestion_lost": 10245, "delivered": 3822},
        {"origin": 1, "relay": 1, "generated": 39829, "sidelink_lost": 0,
         "congestion_lost": 28967, "delivered": 10862},
    ],
    "per_link": [
        {"link": 0, "offered": 39802, "blocked": 26570,
         "empirical_block_prob": 0.6675543942515452, "std_err": 0.0023613000714459453},
        {"link": 1, "offered": 53896, "blocked": 39212,
         "empirical_block_prob": 0.7275493543120083, "std_err": 0.0019177716019708239},
    ],
    "empirical_tr": 1.3958,
}


def test_simulate_output_is_frozen():
    # Any change to the simulator's RNG stream (the draws, their order, or
    # numpy's own Generator algorithms) changes these counts, and must come
    # with a deliberate refreeze of this table.
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    out = ln.simulate(ln.SimConfig(inst, prof, 20_000.0, 7))
    assert packet_sim.outcome_to_json(out) == FROZEN_SIMULATE_SEED_7


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


def test_subnormal_rate_link_draws_no_arrival_and_no_warning():
    # 1 / T overflows to inf, so the first idle period never ends; warnings are errors here.
    inst = ln.Instance((1,), 1e-320, 1.0, 0.0)
    out = ln.simulate(ln.SimConfig(inst, ln.RoutingProfile(((1,),)), 10.0, 0))
    assert out.per_link[0].offered == 0 and out.empirical_tr == 0.0


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


def test_counts_have_poisson_dispersion(monkeypatch):
    # Each class's generated count and each link's offered count is Poisson,
    # so over independent seeds the index of dispersion sum((x - mean)^2) / mean
    # is chi-square with seeds - 1 degrees of freedom; two-sided, level 1e-3.
    # At 64 expected packets per window each count sums about 16 windows.
    monkeypatch.setattr(packet_sim, "WINDOW", 64)
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    seeds = 300
    outs = [ln.simulate(ln.SimConfig(inst, prof, 200.0, seed)) for seed in range(seeds)]
    samples = {key: [o.per_class[key].generated for o in outs] for key in outs[0].per_class}
    samples |= {("link", j): [o.per_link[j].offered for o in outs] for j in outs[0].per_link}
    assert len(samples) == 5
    lo, hi = stats.chi2.ppf([5e-4, 1.0 - 5e-4], seeds - 1)
    for key, counts in samples.items():
        x = np.array(counts, dtype=float)
        dispersion = float(((x - x.mean()) ** 2).sum() / x.mean())
        assert lo <= dispersion <= hi, (key, dispersion, lo, hi)


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


def test_generated_counts_cover_the_whole_horizon():
    # Every simulated packet is counted: each class's generated count is
    # Poisson with mean rate * horizon (within 5 sigma).
    cfg = small_cfg(horizon=100_000.0, seed=31)
    out = ln.simulate(cfg)
    for (i, r), c in out.per_class.items():
        rate = cfg.profile.flow[i][r] * cfg.instance.phi
        mean = rate * cfg.horizon
        assert abs(c.generated - mean) <= 5.0 * math.sqrt(mean)


@pytest.mark.parametrize("counts, flow, horizon, seeds", [
    ((3, 2), ((2, 1), (0, 2)), 2.0, 600),
    ((1,), ((1,),), 4.0, 4_000),
])
def test_short_runs_start_stationary(counts, flow, horizon, seeds):
    # Each run is too short to forget an idle start, so only links that start
    # in their stationary state block T_j / (T_j + mu) of the packets pooled
    # over many runs.  Under Poisson arrivals the blocked indicators are
    # i.i.d., so the pooled fraction has the binomial standard error.
    inst = ln.Instance(counts, 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(flow)
    outs = [ln.simulate(ln.SimConfig(inst, prof, horizon, seed)) for seed in range(seeds)]
    for j, t in enumerate(ln.traffic_rates(inst, prof)):
        offered = sum(o.per_link[j].offered for o in outs)
        blocked = sum(o.per_link[j].blocked for o in outs)
        p = t / (t + inst.mu)
        z = (blocked / offered - p) / math.sqrt(p * (1.0 - p) / offered)
        assert abs(z) <= 4.0, (j, z)


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


def _scalar_counts(rng, t, mu, horizon):
    """(accepted, blocked) of `_scalar_accepted` on a Poisson(t) stream on [0, horizon).

    The link starts stationary: busy with probability t / (t + mu), held by an
    arrival at time 0 whose service is the residual, which is not counted.
    """
    busy = int(rng.random() < t / (t + mu))
    times = np.sort(rng.uniform(0.0, horizon, rng.poisson(t * horizon)))
    times = np.concatenate((np.zeros(busy), times))
    accepted = len(_scalar_accepted(times, rng.exponential(1.0 / mu, len(times)))[0]) - busy
    return accepted, len(times) - busy - accepted


def _cycle_counts(rng, t, mu, horizon):
    """(accepted, blocked) of one link as `simulate` draws them."""
    accepted, busy = _cycles(rng, t, mu, horizon)
    return accepted, int(rng.poisson(t * busy))


def _thinned_counts(rng, t, mu, horizon):
    """Negative control: a Poisson count split binomially, so accepted and blocked are independent."""
    n = rng.poisson(t * horizon)
    accepted = int(rng.binomial(n, mu / (t + mu)))
    return accepted, n - accepted


CYCLE_SEEDS = 8_000
# (T, mu, horizon): mostly blocked, mostly accepted, and a run shorter than
# its start's residual service.
CYCLE_CASES = [(2.0, 1.0, 20.0), (0.5, 2.0, 40.0), (3.0, 0.5, 2.0)]


@functools.cache
def _counts(draw, t, mu, horizon, window=None):
    """CYCLE_SEEDS draws of (accepted, blocked); `window` only keys the cache."""
    rng = np.random.default_rng([zlib.crc32(draw.__name__.encode()), int(100 * t), int(100 * mu)])
    return np.array([draw(rng, t, mu, horizon) for _ in range(CYCLE_SEEDS)], dtype=float)


def _disagreements(got, ref):
    """Where two samples of (accepted, blocked) pairs differ beyond chance.

    Two-sample KS on each count and on their sum (level 1e-3), and the
    correlation of accepted and blocked within 4 standard errors of the
    difference of two sample correlations.
    """
    bad = []
    for name, f in [("accepted", lambda x: x[:, 0]), ("blocked", lambda x: x[:, 1]),
                    ("offered", lambda x: x.sum(1))]:
        p = stats.ks_2samp(f(got), f(ref), method="asymp").pvalue
        if p < 1e-3:
            bad.append((name, p))
    r_got, r_ref = (np.corrcoef(x[:, 0], x[:, 1])[0, 1] for x in (got, ref))
    se = (1.0 - r_ref**2) * math.sqrt(2.0 / CYCLE_SEEDS)
    if abs(r_got - r_ref) > 4.0 * se:
        bad.append(("correlation", r_got, r_ref))
    return bad


@pytest.mark.parametrize("window", [1, 8, packet_sim.WINDOW])
@pytest.mark.parametrize("t, mu, horizon", CYCLE_CASES)
def test_cycles_match_scalar_reference(monkeypatch, window, t, mu, horizon):
    # 8,000 runs a side of one stationary link: the cycle sampler in chunks
    # of one cycle, of four and of one chunk, against the arrival-by-arrival walk.
    monkeypatch.setattr(packet_sim, "WINDOW", window)
    ref = _counts(_scalar_counts, t, mu, horizon)
    got = _counts(_cycle_counts, t, mu, horizon, window)
    assert _disagreements(got, ref) == []


def test_cycle_check_rejects_independent_thinning():
    # Binomial thinning gets each count's mean right but makes accepted and
    # blocked independent, where the walk correlates them (each acceptance
    # starts a busy period that blocks); the check must see it.
    ref = _counts(_scalar_counts, *CYCLE_CASES[0])
    assert -0.25 < np.corrcoef(ref[:, 0], ref[:, 1])[0, 1] < -0.1
    bad = _disagreements(_counts(_thinned_counts, *CYCLE_CASES[0]), ref)
    assert "correlation" in [b[0] for b in bad], bad


def test_class_split_does_not_depend_on_class():
    # Link 1 carries classes (0, 1) and (1, 1).  Per seed, the 2 x 2 table of
    # class by delivered/blocked has a Pearson statistic near chi-square(1)
    # if delivery is independent of the class, so the sum over seeds is
    # chi-square with `seeds` degrees of freedom; two-sided, level 1e-3.
    inst = ln.Instance((3, 2), 1.0, 1.0, 0.3)
    prof = ln.RoutingProfile(((2, 1), (0, 2)))
    seeds = 200
    total = 0.0
    for seed in range(seeds):
        out = ln.simulate(ln.SimConfig(inst, prof, 2_000.0, seed))
        table = np.array([[c.delivered, c.congestion_lost]
                          for c in (out.per_class[(0, 1)], out.per_class[(1, 1)])], dtype=float)
        expected = table.sum(1, keepdims=True) * table.sum(0, keepdims=True) / table.sum()
        total += float(((table - expected) ** 2 / expected).sum())
    lo, hi = stats.chi2.ppf([5e-4, 1.0 - 5e-4], seeds)
    assert lo <= total <= hi, (total, lo, hi)


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
