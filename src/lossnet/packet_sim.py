"""Packet-level Monte Carlo simulator for the bufferless loss network.

Mechanics, per packet: each occupied class (origin i, relay r) with c users
emits a merged Poisson stream of rate c * phi.  A relayed packet first
survives an independent Bernoulli(1 - q) sidelink trial (the sidelink itself
is instantaneous and has no service process).  A packet that reaches direct
link r is delivered only if the link is idle, in which case the link stays
busy for an exponential(mu) transmission time; a packet finding the link busy
is dropped immediately (no buffer, no retry).

Randomness is split into one independent child stream per class (arrivals),
per class (sidelink trials), and per link (transmission times), all spawned
deterministically from the master seed, so outcomes are bit-for-bit
reproducible and independent runs can execute concurrently.

The first 1% of the horizon is excluded from every counter to remove the
initial-idle bias; the analytic targets are stationary quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import Instance, RoutingProfile, class_loss, traffic_rates

WARMUP_FRACTION = 0.01


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
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")


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


def _poisson_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Sorted arrival times of a Poisson(rate) stream on [0, horizon)."""
    if rate <= 0:
        return np.empty(0)
    pieces = []
    t = 0.0
    block = max(int(rate * horizon * 1.05 + 10.0 * math.sqrt(rate * horizon) + 64), 64)
    while True:
        gaps = rng.exponential(1.0 / rate, size=block)
        times = t + np.cumsum(gaps)
        pieces.append(times[times < horizon])
        if times[-1] >= horizon:
            break
        t = float(times[-1])
        block = max(block // 4, 64)
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def _scan_link(
    times: np.ndarray,
    cls: np.ndarray,
    services: np.ndarray,
    warmup: float,
    n_classes: int,
) -> tuple[list[int], list[int]]:
    """Run the busy/idle recursion; per-class delivered and blocked counts."""
    delivered = [0] * n_classes
    blocked = [0] * n_classes
    busy_until = -math.inf
    k = 0
    chunk = 1 << 18
    for lo in range(0, len(times), chunk):
        for t, c in zip(times[lo : lo + chunk].tolist(), cls[lo : lo + chunk].tolist()):
            if t >= busy_until:
                busy_until = t + float(services[k])
                k += 1
                if t >= warmup:
                    delivered[c] += 1
            elif t >= warmup:
                blocked[c] += 1
    return delivered, blocked


def simulate(cfg: SimConfig) -> SimOutcome:
    """Deterministic (per seed) packet-level run of one routing profile."""
    inst, prof = cfg.instance, cfg.profile
    m, phi, mu, q = inst.m, inst.phi, inst.mu, inst.q
    warmup = WARMUP_FRACTION * cfg.horizon

    classes = [
        (i, r)
        for i in range(m)
        for r in range(m)
        if prof.flow[i][r] >= 1
    ]
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(2 * len(classes) + m)
    arrival_rngs = [np.random.default_rng(children[2 * k]) for k in range(len(classes))]
    side_rngs = [np.random.default_rng(children[2 * k + 1]) for k in range(len(classes))]
    link_rngs = [np.random.default_rng(children[2 * len(classes) + j]) for j in range(m)]

    generated = [0] * len(classes)
    side_lost = [0] * len(classes)
    link_feed: dict[int, list[tuple[np.ndarray, int]]] = {j: [] for j in range(m)}
    for k, (i, r) in enumerate(classes):
        times = _poisson_times(arrival_rngs[k], prof.flow[i][r] * phi, cfg.horizon)
        generated[k] = int((times >= warmup).sum())
        if r != i:
            lost = side_rngs[k].random(times.shape[0]) < q
            side_lost[k] = int((times[lost] >= warmup).sum())
            times = times[~lost]
        link_feed[r].append((times, k))

    delivered = [0] * len(classes)
    blocked = [0] * len(classes)
    per_link: dict[int, LinkCounts] = {}
    for j in range(m):
        feeds = link_feed[j]
        if feeds:
            if len(feeds) == 1:
                times = feeds[0][0]
                cls = np.full(times.shape[0], feeds[0][1], dtype=np.int64)
            else:
                times = np.concatenate([f[0] for f in feeds])
                cls = np.concatenate(
                    [np.full(f[0].shape[0], f[1], dtype=np.int64) for f in feeds]
                )
                order = np.argsort(times, kind="stable")
                times, cls = times[order], cls[order]
            services = link_rngs[j].exponential(1.0 / mu, size=times.shape[0])
            dlv, blk = _scan_link(times, cls, services, warmup, len(classes))
            for k in range(len(classes)):
                delivered[k] += dlv[k]
                blocked[k] += blk[k]
            offered = sum(dlv) + sum(blk)
            nblk = sum(blk)
        else:
            offered, nblk = 0, 0
        p_hat = nblk / offered if offered else 0.0
        se = math.sqrt(p_hat * (1.0 - p_hat) / offered) if offered else 0.0
        per_link[j] = LinkCounts(offered, nblk, p_hat, se)

    per_class = {
        (i, r): ClassCounts(generated[k], side_lost[k], blocked[k], delivered[k])
        for k, (i, r) in enumerate(classes)
    }
    span = cfg.horizon - warmup
    return SimOutcome(
        per_class=per_class,
        per_link=per_link,
        empirical_tr=sum(delivered) / span,
    )


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
    checks: list[Check] = []
    for j in range(inst.m):
        lc = outcome.per_link[j]
        expected = rates[j] / (rates[j] + inst.mu)
        if lc.offered == 0:
            checks.append(Check("link-blocking", (j,), 0.0, expected, 0.0, 0.0, True))
            continue
        diff = abs(lc.empirical_block_prob - expected)
        sig = diff / lc.std_err if lc.std_err > 0 else (0.0 if diff == 0 else math.inf)
        checks.append(
            Check(
                "link-blocking", (j,), lc.empirical_block_prob, expected,
                lc.std_err, sig, sig <= tolerance_sigmas,
            )
        )
    for (i, r), cc in sorted(outcome.per_class.items()):
        expected = class_loss(inst, rates, i, r)
        if cc.generated == 0:
            checks.append(Check("class-loss", (i, r), 0.0, expected, 0.0, 0.0, True))
            continue
        emp = (cc.sidelink_lost + cc.congestion_lost) / cc.generated
        se = math.sqrt(emp * (1.0 - emp) / cc.generated)
        diff = abs(emp - expected)
        sig = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
        checks.append(
            Check("class-loss", (i, r), emp, expected, se, sig, sig <= tolerance_sigmas)
        )
    return ValidationReport(tuple(checks))


def validate_analytics(cfg: SimConfig, tolerance_sigmas: float = 3.0) -> ValidationReport:
    """Run one simulation and compare it with the closed-form loss model.

    Per link: empirical blocking fraction against T_j / (T_j + mu).  Per
    class: empirical loss fraction against the class loss probability.
    Failures are returned as data, never raised.
    """
    outcome = simulate(cfg)
    rates = traffic_rates(cfg.instance, cfg.profile)
    return assess_outcome(cfg.instance, cfg.profile, outcome, rates, tolerance_sigmas)


def outcome_to_json(outcome: SimOutcome) -> dict:
    return {
        "per_class": [
            {
                "origin": i,
                "relay": r,
                "generated": c.generated,
                "sidelink_lost": c.sidelink_lost,
                "congestion_lost": c.congestion_lost,
                "delivered": c.delivered,
            }
            for (i, r), c in sorted(outcome.per_class.items())
        ],
        "per_link": [
            {
                "link": j,
                "offered": lc.offered,
                "blocked": lc.blocked,
                "empirical_block_prob": lc.empirical_block_prob,
                "std_err": lc.std_err,
            }
            for j, lc in sorted(outcome.per_link.items())
        ],
        "empirical_tr": outcome.empirical_tr,
    }
