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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapacityError
from .model import (
    TOLERANCE,
    Instance,
    RoutingProfile,
    TrafficSummary,
    count_profiles,
    iter_profiles,
    loss_rate,
    summarize,
    total_traffic,
)
from .optimizer import opt_traffic_upper_bound, solve_optimal


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


def _loads(inst: Instance, prof: RoutingProfile) -> tuple[list[float], int]:
    qbar = inst.qbar
    u, v = prof.u(), prof.v()
    load = [u[i] + v[i] * qbar for i in range(inst.m)]
    i_star = min(range(inst.m), key=lambda i: (load[i], i))
    return load, i_star


def is_nash_characterization(
    inst: Instance, prof: RoutingProfile, eps: float = TOLERANCE
) -> NEVerdict:
    """Equilibrium verdict from the closed-form load conditions."""
    prof.validate_for(inst)
    load, i_star = _loads(inst, prof)
    if inst.m == 1:
        return NEVerdict(True, 0, ())
    qbar = inst.qbar
    qm = inst.q * inst.mu / inst.phi
    u, v = prof.u(), prof.v()
    viols: list[Violation] = []
    cap_min = load[i_star] + qbar + qm
    for i in range(inst.m):
        if u[i] > 0:
            lhs = qbar * load[i]
            if lhs > cap_min + eps:
                viols.append(Violation("condition-(i)", i, None, lhs, cap_min))
    for i, l in prof.indirect_edges():
        lhs = load[l]
        rhs_dp = qbar * (u[i] + 1 + v[i] * qbar) - qm
        if lhs > rhs_dp + eps:
            viols.append(Violation("condition-(ii)-DP", i, l, lhs, rhs_dp))
        rhs_ip = load[i_star] + qbar
        if lhs > rhs_ip + eps:
            viols.append(Violation("condition-(ii)-IP", i, l, lhs, rhs_ip))
    return NEVerdict(not viols, i_star, tuple(viols))


def is_nash_deviation_oracle(
    inst: Instance, prof: RoutingProfile, eps: float = TOLERANCE
) -> NEVerdict:
    """Equilibrium verdict by trying every unilateral one-user move."""
    prof.validate_for(inst)
    _, i_star = _loads(inst, prof)
    viols: list[Violation] = []
    for i in range(inst.m):
        for r in range(inst.m):
            if prof.flow[i][r] < 1:
                continue
            current = loss_rate(inst, prof, i, r)
            for r2 in range(inst.m):
                if r2 == r:
                    continue
                alt = loss_rate(inst, prof.move(i, r, r2), i, r2)
                if current > alt + eps:
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
    total = count_profiles(inst)
    if total > cap:
        raise CapacityError(
            f"instance has {total} profiles, above the enumeration cap {cap}"
        )
    found = []
    for prof in iter_profiles(inst):
        if is_nash_characterization(inst, prof).is_ne:
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
    start.validate_for(inst)
    rng = random.Random(seed)
    prof = start
    seen = {prof.flow}
    for rounds in range(1, max_rounds + 1):
        occupied = [
            (i, r)
            for i in range(inst.m)
            for r in range(inst.m)
            if prof.flow[i][r] >= 1
        ]
        rng.shuffle(occupied)
        moved = False
        for i, r in occupied:
            if prof.flow[i][r] < 1:
                continue
            current = loss_rate(inst, prof, i, r)
            best_alt, best_rate = None, None
            for r2 in range(inst.m):
                if r2 == r:
                    continue
                alt = loss_rate(inst, prof.move(i, r, r2), i, r2)
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
    equilibrium set is reported, not raised.
    """
    tr_opt = solve_optimal(inst).tr
    if inst.m == 2:
        from .two_source import scan_nash  # local import avoids a module cycle

        states = scan_nash(inst)
        trs = [total_traffic(inst, s.expand(inst)) for s in states]
        ne_count = len(states)
    else:
        nes = enumerate_nash(inst, cap=cap)
        trs = [summary.total_traffic for _, summary in nes]
        ne_count = len(nes)
    tr_worst = min(trs) if trs else None
    poa_exact = tr_opt / tr_worst if tr_worst else None
    return PoAReport(
        tr_opt=tr_opt,
        tr_worst_ne=tr_worst,
        poa_exact=poa_exact,
        z=mixing_level(inst),
        poa_bound=poa_bound(inst),
        ne_count=ne_count,
    )
