"""Packet-level Monte Carlo simulator for the bufferless loss network.

Mechanics, per packet: each occupied class (origin i, relay r) with c users
emits a merged Poisson stream of rate c * phi.  A relayed packet first
survives an independent Bernoulli(1 - q) sidelink trial (the sidelink itself
is instantaneous and has no service process).  A packet that reaches direct
link r is delivered only if the link is idle, in which case the link stays
busy for an exponential(mu) transmission time; a packet finding the link busy
is dropped immediately (no buffer, no retry).  Every arrival at a link draws
its own service time, used only if it is accepted.

Time is cut into fixed windows of about `WINDOW` expected packets.  In each
window every class draws its arrivals (Poisson on [t0, t1), draws past t1
discarded) and its sidelink trials, and each link merges its feeds and scans
them, carrying its `busy_until` across the window edge.  The scan walks only
the accepted arrivals, each to the first arrival at or after the end of its
service, so a blocked packet costs no interpreted step.  Memory is
O(WINDOW) at any horizon.

Randomness is split into one independent child stream per class (arrivals),
per class (sidelink trials), and per link (transmission times), all spawned
deterministically from the master seed, so outcomes are bit-for-bit
reproducible and independent runs can execute concurrently.

The first 1% of the horizon is excluded from every counter to remove the
initial-idle bias; the analytic targets are stationary quantities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import Instance, RoutingProfile, class_loss, sum_left, traffic_rates

WARMUP_FRACTION = 0.01
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


def _poisson_times(rng: np.random.Generator, rate: float, t0: float, t1: float) -> np.ndarray:
    """Sorted arrival times of a Poisson(rate) stream on [t0, t1).

    Draws past t1 are discarded: by memorylessness, the stream after t1 can
    start afresh there.
    """
    pieces = []
    mean = rate * (t1 - t0)
    block = int(mean + 10.0 * math.sqrt(mean) + 64)
    while True:
        times = t0 + np.cumsum(rng.exponential(1.0 / rate, size=block))
        pieces.append(times[: np.searchsorted(times, t1)])
        if times[-1] >= t1:
            break
        t0 = float(times[-1])
        block = max(block // 4, 64)
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def _scan_link(
    times: np.ndarray, services: np.ndarray, busy_until: float
) -> tuple[np.ndarray, float]:
    """Accepted arrivals of one link window, and the link's busy_until after it.

    Arrival k finds the link idle when times[k] >= busy_until, and then holds
    it until times[k] + services[k].  Its successor is the first arrival at or
    after that end, and at least k + 1, so that a float tie t + s == t cannot
    stall the walk.  The walk follows successors from the first arrival at or
    after `busy_until`, so a blocked arrival costs no interpreted step.
    """
    n = times.shape[0]
    ends = times + services
    nxt = np.arange(1, n + 1)
    ext = np.append(times, np.inf)
    for _ in range(2):  # most successors are a step or two ahead: binary-search only the rest
        nxt += ext[nxt] < ends
    far = np.flatnonzero(ext[nxt] < ends)
    nxt[far] = np.searchsorted(times, ends[far])
    nxt = nxt.tolist()
    accepted = bytearray(n)
    k = int(np.searchsorted(times, busy_until))
    try:
        while True:
            accepted[k] = 1
            k = nxt[k]
    except IndexError:  # k == n: the walk has left the window
        pass
    last = accepted.rfind(1)
    return np.frombuffer(accepted, dtype=bool), float(ends[last]) if last >= 0 else busy_until


def simulate(cfg: SimConfig) -> SimOutcome:
    """Deterministic (per seed) packet-level run of one routing profile."""
    inst, prof = cfg.instance, cfg.profile
    m, mu, q = inst.m, inst.mu, inst.q
    warmup = WARMUP_FRACTION * cfg.horizon

    classes = [(i, r) for i in range(m) for r in range(m) if prof.flow[i][r] >= 1]
    nc = len(classes)
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(2 * nc + m)
    arrival_rngs = [np.random.default_rng(children[2 * k]) for k in range(nc)]
    side_rngs = [np.random.default_rng(children[2 * k + 1]) for k in range(nc)]
    link_rngs = [np.random.default_rng(children[2 * nc + j]) for j in range(m)]

    rates = [prof.flow[i][r] * inst.phi for i, r in classes]
    windows = math.ceil(cfg.horizon * sum_left(rates) / WINDOW)
    generated, side_lost = [0] * nc, [0] * nc
    offered = np.zeros(nc, dtype=np.int64)
    delivered = np.zeros(nc, dtype=np.int64)
    busy_until = [-math.inf] * m
    for w in range(windows):
        t0, t1 = cfg.horizon * w / windows, cfg.horizon * (w + 1) / windows
        link_feed: list[list[tuple[np.ndarray, int]]] = [[] for _ in range(m)]
        for k, (i, r) in enumerate(classes):
            times = _poisson_times(arrival_rngs[k], rates[k], t0, t1)
            first = int(np.searchsorted(times, warmup))
            generated[k] += times.shape[0] - first
            if r != i:
                lost = side_rngs[k].random(times.shape[0]) < q
                side_lost[k] += int(np.count_nonzero(lost[first:]))
                times = times[~lost]
            link_feed[r].append((times, k))
        for j, feeds in enumerate(link_feed):
            if not feeds:
                continue
            times = np.concatenate([f[0] for f in feeds])
            cls = np.concatenate([np.full(f[0].shape[0], f[1]) for f in feeds])
            if len(feeds) > 1:
                order = np.argsort(times, kind="stable")
                times, cls = times[order], cls[order]
            services = link_rngs[j].exponential(1.0 / mu, size=times.shape[0])
            accepted, busy_until[j] = _scan_link(times, services, busy_until[j])
            first = int(np.searchsorted(times, warmup))
            offered += np.bincount(cls[first:], minlength=nc)
            delivered += np.bincount(cls[first:][accepted[first:]], minlength=nc)

    per_link: dict[int, LinkCounts] = {}
    for j in range(m):
        on_j = [k for k, (_, r) in enumerate(classes) if r == j]
        n_off = int(offered[on_j].sum())
        n_blk = n_off - int(delivered[on_j].sum())
        p_hat = n_blk / n_off if n_off else 0.0
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_off) if n_off else 0.0
        per_link[j] = LinkCounts(n_off, n_blk, p_hat, se)
    per_class = {
        c: ClassCounts(generated[k], side_lost[k], int(offered[k] - delivered[k]),
                       int(delivered[k]))
        for k, c in enumerate(classes)
    }
    return SimOutcome(per_class, per_link, int(delivered.sum()) / (cfg.horizon - warmup))


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
               rates[j] / (rates[j] + inst.mu), tolerance_sigmas)
        for j, lc in sorted(outcome.per_link.items())
    ]
    for (i, r), cc in sorted(outcome.per_class.items()):
        checks.append(_check("class-loss", (i, r), cc.sidelink_lost + cc.congestion_lost,
                             cc.generated, class_loss(inst, rates, i, r), tolerance_sigmas))
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
