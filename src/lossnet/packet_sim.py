"""Packet-level Monte Carlo simulator for the bufferless loss network.

Mechanics, per packet: each occupied class (origin i, relay r) with c users
emits a merged Poisson stream of rate c * phi.  A relayed packet first
survives an independent Bernoulli(1 - q) sidelink trial (the sidelink itself
is instantaneous and has no service process).  A packet that reaches direct
link r is delivered only if the link is idle, in which case the link stays
busy for an exponential(mu) transmission time; a packet finding the link busy
is dropped immediately (no buffer, no retry).

No arrival is drawn one by one.  The packets reaching link j form a Poisson
stream of rate T_j, so the link alternates idle periods, exponential(T_j),
with busy ones: the arrival that ends an idle period is accepted, and its
exponential(mu) service is the busy period, in which every arrival is
blocked (the Erlang loss mechanism; Kelly 1979).  A link thus draws two
numbers per accepted packet and none per blocked one.  It starts
stationary, busy with probability T_j / (T_j + mu) for an exponential(mu)
residual, so even a short run is unbiased.  Its accepted count is the busy
periods started in [0, horizon), its blocked count Poisson(T_j * busy time
in [0, horizon)).  Cycles come in chunks of at most `WINDOW` // 2, one
alive at a time, so memory is O(WINDOW) at any horizon.

Class labels are i.i.d., in proportion to each class's rate at the link,
and independent of the times, so each class's delivered and congestion-lost
counts are multinomial splits of the link's totals; a relayed class's
sidelink losses, its thinned-out stream, are Poisson(c * phi * q * horizon).

Randomness is one child stream per link (its start, cycles, counts and
splits, and the sidelink losses of the classes it relays), spawned
deterministically from the master seed, so outcomes are bit-for-bit
reproducible and independent runs can execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import (Instance, RoutingProfile, _as_int, _as_real, class_loss, link_rates,
                    traffic_rates)

#: A chunk draws at most WINDOW // 2 busy/idle cycles, two float64s each.
WINDOW = 1 << 16
#: Standard errors an observed loss fraction may stray from the model's.
TOLERANCE_SIGMAS = 3.0


@dataclass(frozen=True)
class SimConfig:
    instance: Instance
    profile: RoutingProfile
    horizon: float
    seed: int

    def __post_init__(self) -> None:
        self.profile.validate_for(self.instance)
        horizon = _as_real(self.horizon, "horizon", 0, math.inf, exclusive=True)
        object.__setattr__(self, "horizon", horizon)
        if not math.isfinite(self.horizon * self.instance.n * self.instance.phi):
            raise InvalidInputError(f"horizon {self.horizon!r} overflows the packet count")
        _as_int(self.seed, "seed", 0)


@dataclass(frozen=True, slots=True)
class ClassCounts:
    generated: int
    sidelink_lost: int
    congestion_lost: int
    delivered: int


@dataclass(frozen=True, slots=True)
class LinkCounts:
    offered: int
    blocked: int
    empirical_block_prob: float
    std_err: float


@dataclass(frozen=True, slots=True)
class SimOutcome:
    per_class: dict[tuple[int, int], ClassCounts] = field(repr=False)
    per_link: dict[int, LinkCounts] = field(repr=False)
    empirical_tr: float


def _cycles(rng, t: float, mu: float, horizon: float) -> tuple[int, float]:
    """Accepted arrivals and busy time on [0, horizon) of one stationary link offered t > 0.

    A chunk of cycles that ends before the horizon counts only through its two sums.
    """
    now = busy = 0.0
    mean_idle, mean_serve = 1.0 / t, 1.0 / mu  # inf at a subnormal t: scale by products
    if rng.random() * (t + mu) < t:  # busy at time 0, with a memoryless residual service
        now = rng.exponential(mean_serve)
        busy = min(now, horizon)
    accepted, buf = 0, None
    while now < horizon:
        # The cycles expected before the horizon, plus 4 sd of their count (below sqrt(left)).
        left = (horizon - now) / (mean_idle + mean_serve)
        n = int(min(max(1, WINDOW // 2), left + 4.0 * math.sqrt(left) + 1.0))
        if buf is None:  # n only shrinks as `now` grows
            buf = np.empty((2, n))
        idle, serve = buf[0, :n], buf[1, :n]
        rng.standard_exponential(out=idle)
        rng.standard_exponential(out=serve)
        served = float(serve.sum()) * mean_serve
        end = now + float(idle.sum()) * mean_idle + served
        if end < horizon:
            accepted, busy, now = accepted + n, busy + served, end
            continue
        idle *= mean_idle
        serve *= mean_serve
        idle += serve
        np.cumsum(idle, out=idle)
        idle -= serve  # each arrival's time after `now`
        k = int(np.searchsorted(idle, horizon - now))
        if k:
            end = now + float(idle[k - 1] + serve[k - 1])
            busy += float(serve[:k].sum()) - max(0.0, end - horizon)
        accepted, now = accepted + k, end if k == n else math.inf
    return accepted, busy


def simulate(cfg: SimConfig) -> SimOutcome:
    """Deterministic (per seed) packet-level run of one routing profile."""
    inst, prof, horizon = cfg.instance, cfg.profile, cfg.horizon
    m, mu, phi, q = inst.m, inst.mu, inst.phi, inst.q

    classes = [(i, r) for i in range(m) for r in range(m) if prof.flow[i][r] >= 1]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(m)]
    sidelink, lost, delivered = (np.zeros(len(classes), dtype=np.int64) for _ in range(3))
    per_link: dict[int, LinkCounts] = {}
    for j, (rng, t) in enumerate(zip(rngs, link_rates(inst, prof.flow))):
        fed = [(k, i, prof.flow[i][j]) for k, (i, r) in enumerate(classes) if r == j]
        for k, i, c in fed:
            if i != j:
                sidelink[k] = rng.poisson(c * phi * q * horizon)
        n_acc = n_blk = 0
        if t > 0:  # at q = 1 a link fed only by relays has rate 0 and draws nothing
            ks = [k for k, _, _ in fed]
            share = np.array([c if i == j else c * inst.qbar for _, i, c in fed], dtype=float)
            share /= share.sum()
            n_acc, busy = _cycles(rng, t, mu, horizon)
            n_blk = int(rng.poisson(t * busy))
            delivered[ks] = rng.multinomial(n_acc, share)
            lost[ks] = rng.multinomial(n_blk, share)
        n_off = n_acc + n_blk
        p_hat = n_blk / n_off if n_off else 0.0
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_off) if n_off else 0.0
        per_link[j] = LinkCounts(n_off, n_blk, p_hat, se)
    per_class = {
        c: ClassCounts(int(sidelink[k] + lost[k] + delivered[k]), int(sidelink[k]),
                       int(lost[k]), int(delivered[k]))
        for k, c in enumerate(classes)
    }
    return SimOutcome(per_class, per_link, int(delivered.sum()) / horizon)


@dataclass(frozen=True, slots=True)
class Check:
    kind: str  # "link-blocking" | "class-loss"
    key: tuple
    empirical: float
    expected: float
    std_err: float
    margin_sigmas: float
    passed: bool


@dataclass(frozen=True, slots=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


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
    tolerance_sigmas: float = TOLERANCE_SIGMAS,
) -> ValidationReport:
    """Compare an outcome against targets computed from the given link rates.

    Exposed separately from `validate_analytics` so negative controls can
    inject deliberately wrong rates.  Zero-sample assertions pass vacuously.
    """
    tolerance_sigmas = _as_real(tolerance_sigmas, "tolerance_sigmas", 0)
    checks = [
        _check("link-blocking", (j,), lc.blocked, lc.offered,
               class_loss(inst, rates[j], j, j), tolerance_sigmas)
        for j, lc in sorted(outcome.per_link.items())
    ]
    for (i, r), cc in sorted(outcome.per_class.items()):
        checks.append(_check("class-loss", (i, r), cc.sidelink_lost + cc.congestion_lost,
                             cc.generated, class_loss(inst, rates[r], i, r), tolerance_sigmas))
    return ValidationReport(tuple(checks))


def validate_analytics(cfg: SimConfig,
                       tolerance_sigmas: float = TOLERANCE_SIGMAS) -> ValidationReport:
    """Run one simulation and compare it with the closed-form loss model.

    Per link: empirical blocking fraction against T_j / (T_j + mu).  Per
    class: empirical loss fraction against the class loss probability.
    Failures are returned as data, never raised.
    """
    _as_real(tolerance_sigmas, "tolerance_sigmas", 0)  # before any simulation runs
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
