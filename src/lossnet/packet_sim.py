"""Packet-level Monte Carlo simulator for the bufferless loss network.

Mechanics, per packet: each occupied class (origin i, relay r) with c users
emits a merged Poisson stream of rate c * phi.  A relayed packet first
survives an independent Bernoulli(1 - q) sidelink trial (the sidelink itself
is instantaneous and has no service process).  A packet that reaches direct
link r is delivered only if the link is idle, in which case the link stays
busy for an exponential(mu) transmission time; a packet finding the link busy
is dropped immediately (no buffer, no retry).

Time is cut into fixed windows of about `WINDOW` expected packets, and the
window draws counts, not streams.  Each class draws one Poisson count for the
window, and a relayed class one binomial(count, 1 - q) count of sidelink
survivors: an independently thinned Poisson stream is again Poisson.  Given
its count, a Poisson stream on [t0, t1) puts its points i.i.d. uniform there,
so each link draws its arrival times as sorted uniforms on [t0, t1).

No link is walked.  Just after any arrival is handled the link is busy, and
by memorylessness the service in progress has a fresh exponential(mu)
residual, independent of the past; so arrival k is accepted exactly when a
residual drawn for it is at most the gap since arrival k - 1, independently
given the times.  Each link carries its last arrival time across window
edges and starts stationary: its Poisson stream of rate T_j had its last
arrival before time 0 an exponential(T_j) gap back (-inf if T_j = 0), so
every packet on [0, horizon) is counted, unbiased at any horizon.  The class
labels of a link's arrivals do not depend on acceptance, so the delivered
count of each class, given the link's accepted total, is multivariate
hypergeometric over the counts that reached the link.  Memory is O(WINDOW)
at any horizon.

Randomness is split into one independent child stream per class (counts and
sidelink trials) and per link (its start, times, residuals and the class
split), all spawned deterministically from the master seed, so outcomes are
bit-for-bit reproducible and independent runs can execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import (Instance, RoutingProfile, _as_int, class_loss, link_rates, sum_left,
                    traffic_rates)

#: Expected packets per arrival window, over all classes.
WINDOW = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    instance: Instance
    profile: RoutingProfile
    horizon: float
    seed: int

    def __post_init__(self) -> None:
        self.profile.validate_for(self.instance)
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise InvalidInputError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not math.isfinite(self.horizon * self.instance.n * self.instance.phi):
            raise InvalidInputError(f"horizon {self.horizon!r} overflows the packet count")
        _as_int(self.seed, "seed", 0)


@dataclass(frozen=True)
class ClassCounts:
    generated: int
    sidelink_lost: int
    congestion_lost: int
    delivered: int


@dataclass(frozen=True)
class LinkCounts:
    offered: int
    blocked: int
    empirical_block_prob: float
    std_err: float


@dataclass(frozen=True)
class SimOutcome:
    per_class: dict[tuple[int, int], ClassCounts] = field(repr=False)
    per_link: dict[int, LinkCounts] = field(repr=False)
    empirical_tr: float


def _accepted(rng: np.random.Generator, times: np.ndarray, last: float, mu: float) -> np.ndarray:
    """Which of one link's sorted arrivals find it idle, given its last arrival `last` before them.

    The link is busy just after each arrival, with a fresh exponential(mu)
    residual service, so arrival k is accepted when the residual drawn for
    it is at most times[k] - times[k - 1].  `last` is -inf on a link that
    has never had an arrival.
    """
    return rng.exponential(1.0 / mu, times.shape[0]) <= np.diff(times, prepend=last)


def simulate(cfg: SimConfig) -> SimOutcome:
    """Deterministic (per seed) packet-level run of one routing profile."""
    inst, prof = cfg.instance, cfg.profile
    m, mu, q = inst.m, inst.mu, inst.q

    classes = [(i, r) for i in range(m) for r in range(m) if prof.flow[i][r] >= 1]
    nc = len(classes)
    on_link = [np.array([k for k, (_, r) in enumerate(classes) if r == j], dtype=np.intp)
               for j in range(m)]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(nc + m)]
    class_rngs, link_rngs = rngs[:nc], rngs[nc:]

    rates = [prof.flow[i][r] * inst.phi for i, r in classes]
    # Each link's last arrival before time 0, in the stationary process.
    last = [-rng.exponential(1.0 / t) if t > 0 else -math.inf
            for rng, t in zip(link_rngs, link_rates(inst, prof.flow))]
    generated, reach, reached, delivered = (np.zeros(nc, dtype=np.int64) for _ in range(4))
    windows = math.ceil(cfg.horizon * sum_left(rates) / WINDOW)
    for w in range(windows):
        t0, t1 = cfg.horizon * w / windows, cfg.horizon * (w + 1) / windows
        for k, (i, r) in enumerate(classes):
            n = class_rngs[k].poisson(rates[k] * (t1 - t0))
            generated[k] += n
            reach[k] = n if r == i else class_rngs[k].binomial(n, 1.0 - q)
        reached += reach
        for j, (ks, rng) in enumerate(zip(on_link, link_rngs)):
            feeds = reach[ks]
            times = rng.uniform(t0, t1, int(feeds.sum()))
            times.sort()
            n_acc = int(np.count_nonzero(_accepted(rng, times, last[j], mu)))
            if times.shape[0]:
                last[j] = float(times[-1])
            delivered[ks] += rng.multivariate_hypergeometric(feeds, n_acc)

    per_link: dict[int, LinkCounts] = {}
    for j, ks in enumerate(on_link):
        n_off = int(reached[ks].sum())
        n_blk = n_off - int(delivered[ks].sum())
        p_hat = n_blk / n_off if n_off else 0.0
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_off) if n_off else 0.0
        per_link[j] = LinkCounts(n_off, n_blk, p_hat, se)
    per_class = {
        c: ClassCounts(int(generated[k]), int(generated[k] - reached[k]),
                       int(reached[k] - delivered[k]), int(delivered[k]))
        for k, c in enumerate(classes)
    }
    return SimOutcome(per_class, per_link, int(delivered.sum()) / cfg.horizon)


@dataclass(frozen=True)
class Check:
    kind: str  # "link-blocking" | "class-loss"
    key: tuple
    empirical: float
    expected: float
    std_err: float
    margin_sigmas: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_tolerance_sigmas(tolerance_sigmas: float) -> None:
    """Reject a negative or NaN sigma count, before any simulation runs."""
    if not tolerance_sigmas >= 0:
        raise InvalidInputError(f"tolerance_sigmas must be non-negative, got {tolerance_sigmas!r}")


def _check(
    kind: str, key: tuple, losses: int, trials: int, expected: float, sigmas: float
) -> Check:
    """One observed loss fraction against the model's probability `expected`.

    The standard error is the binomial one at `expected`, not at the observed
    fraction, so a run that sees no loss at all is not an infinite-sigma miss.
    """
    if trials == 0:
        return Check(kind, key, 0.0, expected, 0.0, 0.0, True)
    emp = losses / trials
    se = math.sqrt(expected * (1.0 - expected) / trials)
    diff = abs(emp - expected)
    sig = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return Check(kind, key, emp, expected, se, sig, sig <= sigmas)


def assess_outcome(
    inst: Instance,
    prof: RoutingProfile,
    outcome: SimOutcome,
    rates: tuple[float, ...],
    tolerance_sigmas: float = 3.0,
) -> ValidationReport:
    """Compare an outcome against targets computed from the given link rates.

    Exposed separately from `validate_analytics` so negative controls can
    inject deliberately wrong rates.  Zero-sample assertions pass vacuously.
    """
    check_tolerance_sigmas(tolerance_sigmas)
    checks = [
        _check("link-blocking", (j,), lc.blocked, lc.offered,
               class_loss(inst, rates[j], j, j), tolerance_sigmas)
        for j, lc in sorted(outcome.per_link.items())
    ]
    for (i, r), cc in sorted(outcome.per_class.items()):
        checks.append(_check("class-loss", (i, r), cc.sidelink_lost + cc.congestion_lost,
                             cc.generated, class_loss(inst, rates[r], i, r), tolerance_sigmas))
    return ValidationReport(tuple(checks))


def validate_analytics(cfg: SimConfig, tolerance_sigmas: float = 3.0) -> ValidationReport:
    """Run one simulation and compare it with the closed-form loss model.

    Per link: empirical blocking fraction against T_j / (T_j + mu).  Per
    class: empirical loss fraction against the class loss probability.
    Failures are returned as data, never raised.
    """
    check_tolerance_sigmas(tolerance_sigmas)
    outcome = simulate(cfg)
    rates = traffic_rates(cfg.instance, cfg.profile)
    return assess_outcome(cfg.instance, cfg.profile, outcome, rates, tolerance_sigmas)


def outcome_to_json(outcome: SimOutcome) -> dict:
    return {
        "per_class": [
            {"origin": i, "relay": r, **asdict(c)}
            for (i, r), c in sorted(outcome.per_class.items())
        ],
        "per_link": [{"link": j, **asdict(lc)} for j, lc in sorted(outcome.per_link.items())],
        "empirical_tr": outcome.empirical_tr,
    }
