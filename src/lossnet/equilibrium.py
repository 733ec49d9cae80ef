"""Nash-equilibrium machinery for the general m-source routing game.

A profile is an equilibrium when no single user can strictly lower its loss
probability by re-routing.  Two independent deciders are provided: a
closed-form characterization over the aggregate loads, and a definitional
oracle that tries every unilateral move.  The two must always agree; tests
enforce it exhaustively on small instances.

With load_i = u_i + v_i * qbar and i* the source of minimum load, a profile
is an equilibrium iff
  (i)  every source i with direct users satisfies
       qbar * load_i <= load_{i*} + qbar + q*mu/phi, and
  (ii) every occupied indirect class (i relaying via l) satisfies
       load_l <= min(qbar * (u_i + 1 + v_i*qbar) - q*mu/phi,
                     load_{i*} + qbar).
Indifference counts as equilibrium, so a deviation must improve by more than
the shared tolerance to disqualify a profile.

`_conditions` is the only copy of (i) and (ii), over a block of profiles:
`enumerate_nash` runs it on the blocks of `model.profile_blocks`,
`is_nash_characterization` on a block of one.  The oracle and the
best-response dynamics stay scalar and independent of it; they share one
move scan, `_moves`, and each keeps its own comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import (
    TOLERANCE,
    Instance,
    RoutingProfile,
    TrafficSummary,
    check_cap,
    delivered,
    link_rates,
    loss_rate,
    profile_blocks,
    summarize,
)
from .optimizer import opt_traffic_upper_bound, solve_optimal
from .two_source import scan_nash


@dataclass(frozen=True)
class Violation:
    """One failed equilibrium condition (or one strictly improving move).

    For the characterization, lhs/rhs are the two sides of the violated
    inequality over aggregate loads.  For the deviation oracle, lhs is the
    user's current loss rate and rhs the rate after the improving move, and
    `relay` names the improving target for direct-path users.
    """

    kind: str  # "condition-(i)" | "condition-(ii)-DP" | "condition-(ii)-IP"
    source: int
    relay: int | None
    lhs: float
    rhs: float


@dataclass(frozen=True)
class NEVerdict:
    is_ne: bool
    i_star: int
    violations: tuple[Violation, ...]


def _conditions(inst: Instance, flow: np.ndarray) -> tuple[np.ndarray, list]:
    """Conditions (i) and (ii) on a (k, m, m) block of flow matrices.

    Returns i_star, shape (k,), and per violation kind one (kind, lhs, rhs,
    violated) tuple of (k, m, m) arrays over (source, link): condition (i)
    sits on the diagonal, the two halves of (ii) on the occupied indirect
    classes.
    """
    qbar = inst.qbar
    qm = inst.q * inst.mu / inst.phi
    u = np.diagonal(flow, axis1=1, axis2=2)
    v = flow.sum(axis=1) - u
    load = u + v * qbar
    i_star = load.argmin(axis=1)
    load_star = load.min(axis=1)[:, None, None]
    direct = (flow > 0) & np.eye(flow.shape[1], dtype=bool)
    relayed = (flow > 0) & ~direct
    full = np.zeros(flow.shape)  # adding it spreads a side over (k, m, m)
    checks = []
    for kind, occupied, lhs, rhs in (
        ("condition-(i)", direct, (qbar * load)[:, :, None], load_star + qbar + qm),
        ("condition-(ii)-DP", relayed, load[:, None, :],
         (qbar * (u + 1 + v * qbar) - qm)[:, :, None]),
        ("condition-(ii)-IP", relayed, load[:, None, :], load_star + qbar),
    ):
        lhs, rhs = lhs + full, rhs + full
        checks.append((kind, lhs, rhs, occupied & (lhs > rhs + TOLERANCE)))
    return i_star, checks


def is_nash_characterization(inst: Instance, prof: RoutingProfile) -> NEVerdict:
    """Equilibrium verdict from the closed-form load conditions."""
    prof.validate_for(inst)
    if inst.n >= 2**62:
        raise InvalidInputError(f"{inst.n} users overflow the int64 flow arithmetic")
    i_star, checks = _conditions(inst, np.array([prof.flow], dtype=np.int64))
    found = []
    for kind, lhs, rhs, bad in checks:
        lhs, rhs = lhs[0].tolist(), rhs[0].tolist()
        sources, links = (x.tolist() for x in np.nonzero(bad[0]))
        found += [(kind, i, l, lhs[i][l], rhs[i][l]) for i, l in zip(sources, links)]
    # Condition (i) by source first, then each indirect class: DP before IP.
    found.sort(key=lambda f: (f[0] != "condition-(i)", f[1], f[2]))
    viols = tuple(Violation(kind, i, None if i == l else l, a, b) for kind, i, l, a, b in found)
    return NEVerdict(not viols, int(i_star[0]), viols)


def _moves(inst: Instance, prof: RoutingProfile, i: int, r: int) -> tuple[float, list]:
    """Loss rate of a class-(i, r) user, and (r2, its rate once moved to r2) per r2 != r."""
    alts = [(r2, loss_rate(inst, prof.move(i, r, r2), i, r2)) for r2 in range(inst.m) if r2 != r]
    return loss_rate(inst, prof, i, r), alts


def is_nash_deviation_oracle(inst: Instance, prof: RoutingProfile) -> NEVerdict:
    """Equilibrium verdict by trying every unilateral one-user move."""
    prof.validate_for(inst)
    u, v = prof.u(), prof.v()
    i_star = min(range(inst.m), key=lambda i: (u[i] + v[i] * inst.qbar, i))
    viols: list[Violation] = []
    for i in range(inst.m):
        for r in range(inst.m):
            if prof.flow[i][r] < 1:
                continue
            current, moves = _moves(inst, prof, i, r)
            for r2, alt in moves:
                if current > alt + TOLERANCE:
                    if r == i:
                        kind, relay = "condition-(i)", r2
                    elif r2 == i:
                        kind, relay = "condition-(ii)-DP", r
                    else:
                        kind, relay = "condition-(ii)-IP", r
                    viols.append(Violation(kind, i, relay, current, alt))
    return NEVerdict(not viols, i_star, tuple(viols))


def enumerate_nash(
    inst: Instance, cap: int = 1_000_000
) -> list[tuple[RoutingProfile, TrafficSummary]]:
    """Every equilibrium profile with its traffic summary, lexicographic order."""
    found = []
    for blk in profile_blocks(inst, cap):
        _, checks = _conditions(inst, blk)
        is_ne = ~np.any([bad.any(axis=(1, 2)) for *_, bad in checks], axis=0)
        for flow in blk[is_ne].tolist():
            prof = RoutingProfile(flow)
            found.append((prof, summarize(inst, prof)))
    return found


@dataclass(frozen=True)
class BestResponseResult:
    profile: RoutingProfile
    rounds: int
    outcome: str  # "converged" | "cycle" | "budget-exhausted"


def best_response_dynamics(
    inst: Instance, start: RoutingProfile, max_rounds: int = 1000, seed: int = 0
) -> BestResponseResult:
    """Asynchronous best responses from `start` until a fixed point.

    Each round visits the occupied classes in a seeded random order and moves
    one user of the visited class to its best alternative route when that
    improves the user's loss rate by more than the tolerance (ties between
    alternatives resolve to the lowest relay index).  Stops on the first
    round with no move (converged), when a previously seen profile recurs
    (cycle), or after `max_rounds` rounds (budget-exhausted).
    """
    if max_rounds < 1:
        raise InvalidInputError(f"max_rounds must be at least 1, got {max_rounds!r}")
    start.validate_for(inst)
    rng = random.Random(seed)
    prof = start
    seen = {prof.flow}
    for rounds in range(1, max_rounds + 1):
        occupied = [(i, r) for i in range(inst.m) for r in range(inst.m) if prof.flow[i][r] >= 1]
        rng.shuffle(occupied)
        moved = False
        for i, r in occupied:
            if prof.flow[i][r] < 1:
                continue
            current, moves = _moves(inst, prof, i, r)
            best_alt, best_rate = None, None
            for r2, alt in moves:
                if best_rate is None or alt < best_rate - TOLERANCE:
                    best_alt, best_rate = r2, alt
            if best_alt is not None and current - best_rate > TOLERANCE:
                prof = prof.move(i, r, best_alt)
                moved = True
                if prof.flow in seen:
                    return BestResponseResult(prof, rounds, "cycle")
                seen.add(prof.flow)
        if not moved:
            return BestResponseResult(prof, rounds, "converged")
    return BestResponseResult(prof, max_rounds, "budget-exhausted")


@dataclass(frozen=True)
class TrafficBounds:
    """Closed-form envelope: optimum from above, every equilibrium from below."""

    opt_upper: float
    ne_lower: float | None


def mixing_level(inst: Instance) -> float:
    """The quantity z = min(n_m, n/(4m) - qbar - q*mu/phi) driving the bounds."""
    return min(
        float(min(inst.user_counts)),
        inst.n / (4.0 * inst.m) - inst.qbar - inst.q * inst.mu / inst.phi,
    )


def poa_bound(inst: Instance) -> float | None:
    """Closed-form PoA bound 1 + n1*mu / (z*(n1*phi + mu)), defined only for z > 0."""
    z = mixing_level(inst)
    if z <= 0:
        return None
    n1 = max(inst.user_counts)
    return 1.0 + n1 * inst.mu / (n1 * z * inst.phi + z * inst.mu)


def ne_traffic_bounds(inst: Instance) -> TrafficBounds:
    z = mixing_level(inst)
    ne_lower = None
    if z > 0:
        ne_lower = inst.mu * (inst.m - inst.m * inst.mu / (z * inst.phi + inst.mu))
    return TrafficBounds(opt_upper=opt_traffic_upper_bound(inst), ne_lower=ne_lower)


@dataclass(frozen=True)
class PoAReport:
    """Optimum vs worst equilibrium, with the closed-form bound when defined."""

    tr_opt: float
    tr_worst_ne: float | None
    poa_exact: float | None
    z: float
    poa_bound: float | None
    ne_count: int


def poa_report(inst: Instance, cap: int = 1_000_000) -> PoAReport:
    """Exact price of anarchy plus the analytic bound.

    Two-source instances use the closed-form aggregate scan; otherwise the
    equilibrium set is enumerated exhaustively (subject to `cap`).  An empty
    equilibrium set is reported, not raised.  A negative `cap` is rejected
    before any work, even where no profile is enumerated.
    """
    check_cap(cap)
    tr_opt = solve_optimal(inst).tr
    if inst.m == 2:
        n1, n2 = inst.user_counts
        trs = [
            delivered(inst, link_rates(inst, ((s.u1, n1 - s.u1), (n2 - s.u2, s.u2))))
            for s in scan_nash(inst)
        ]
    else:
        trs = [summary.total_traffic for _, summary in enumerate_nash(inst, cap=cap)]
    tr_worst = min(trs) if trs else None
    poa_exact = tr_opt / tr_worst if tr_worst else None
    return PoAReport(
        tr_opt=tr_opt,
        tr_worst_ne=tr_worst,
        poa_exact=poa_exact,
        z=mixing_level(inst),
        poa_bound=poa_bound(inst),
        ne_count=len(trs),
    )
