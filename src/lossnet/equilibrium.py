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
Indifference counts as equilibrium, by the tie policy of `model`.

(i) and (ii) are evaluated by `model._conditions`, their only copy.  The
oracle and the best-response dynamics stay scalar and independent of it;
they share the move scan `_moves` and the comparison `model.prefers`.  The
game has the ordinal potential Phi = prod_l (T_l + mu) (Monderer and Shapley,
"Potential Games", 1996): a one-user move lowers (ties) the mover's loss
exactly when it raises (keeps) Phi, so improving moves never revisit a profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .model import (
    Instance,
    RoutingProfile,
    TrafficSummary,
    _as_int,
    _conditions,
    check_cap,
    class_loss,
    delivered,
    link_rate,
    link_rates,
    prefers,
    profile_blocks,
    summarize,
)
from .optimizer import opt_traffic_upper_bound, solve_optimal
from .two_source import check_scan_size, scan_nash


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


def is_nash_characterization(inst: Instance, prof: RoutingProfile) -> NEVerdict:
    """Equilibrium verdict from the closed-form load conditions."""
    prof.validate_for(inst)
    load, entries = _conditions(inst, prof.flow)
    viols = tuple(
        Violation(kind, i, None if i == l else l, lhs, rhs)
        for kind, i, l, lhs, rhs, bad in entries
        if bad
    )
    return NEVerdict(not viols, load.index(min(load)), viols)


def _moves(inst: Instance, flow, i: int, r: int) -> list:
    """(r2, link r2's rate once a class-(i, r) user moves to it) per r2 != r, by `link_rate`."""
    rows = list(flow)
    row = rows[i] = list(flow[i])
    moves = []
    for r2 in range(inst.m):
        if r2 != r:
            row[r2] += 1
            moves.append((r2, link_rate(inst, rows, r2)))
            row[r2] -= 1
    return moves


def is_nash_deviation_oracle(inst: Instance, prof: RoutingProfile) -> NEVerdict:
    """Equilibrium verdict by trying every unilateral one-user move."""
    prof.validate_for(inst)
    u, v = prof.u(), prof.v()
    i_star = min(range(inst.m), key=lambda i: (u[i] + v[i] * inst.qbar, i))
    phi, t = inst.phi, link_rates(inst, prof.flow)
    viols: list[Violation] = []
    for i in range(inst.m):
        for r in range(inst.m):
            if prof.flow[i][r] < 1:
                continue
            for r2, t2 in _moves(inst, prof.flow, i, r):
                if prefers(inst, i, r2, t2, r, t[r]):
                    kind = "(i)" if r == i else "(ii)-DP" if r2 == i else "(ii)-IP"
                    viols.append(Violation(f"condition-{kind}", i, r2 if r == i else r,
                                           class_loss(inst, t[r], i, r, phi),
                                           class_loss(inst, t2, i, r2, phi)))
    return NEVerdict(not viols, i_star, tuple(viols))


def enumerate_nash(
    inst: Instance, cap: int = 1_000_000
) -> list[tuple[RoutingProfile, TrafficSummary]]:
    """Every equilibrium profile with its traffic summary, lexicographic order."""
    found = []
    for blk in profile_blocks(inst, cap):
        _, entries = _conditions(inst, blk)
        is_ne = ~np.any([bad for *_, bad in entries], axis=0)
        for flow in blk[..., is_ne].transpose(2, 0, 1).tolist():
            prof = RoutingProfile(flow)
            found.append((prof, summarize(inst, prof)))
    return found


@dataclass(frozen=True)
class BestResponseResult:
    profile: RoutingProfile
    rounds: int
    outcome: str  # "converged" | "budget-exhausted"


def best_response_dynamics(
    inst: Instance, start: RoutingProfile, max_rounds: int = 1000, seed: int = 0
) -> BestResponseResult:
    """Asynchronous best responses from `start` until a fixed point.

    Each round visits the classes occupied at its start in a seeded random
    order and moves one user of the visited class to its best alternative
    by `prefers` (ties to the lowest relay index) when that beats its route.
    Stops on the first round with no move (converged) or after `max_rounds`
    rounds (budget-exhausted).  Every move raises the module's potential.
    Past about 2e6 users on a link, rounding in `prefers` can exceed its
    slack, so a move on an exact tie could pass and a profile recur; such a
    run ends budget-exhausted.

    The run walks one flow of lists and builds its one profile when it
    stops.  A move changes links r and r2 only: r2 takes the rate `_moves`
    gave it, which reads the same column, and r is re-rated by `link_rate`,
    so every rate has the bits of a full recomputation.  `max_rounds` must
    be an int of at least 1 and `seed` a non-negative int, bools rejected.
    """
    _as_int(max_rounds, "max_rounds", 1)
    _as_int(seed, "seed", 0)
    start.validate_for(inst)
    rng = random.Random(seed)
    flow, t = [list(row) for row in start.flow], link_rates(inst, start.flow)
    for rounds in range(1, max_rounds + 1):
        occupied = [(i, r) for i in range(inst.m) for r in range(inst.m) if flow[i][r] >= 1]
        rng.shuffle(occupied)
        moved = False
        for i, r in occupied:
            best = None
            for move in _moves(inst, flow, i, r):
                if best is None or prefers(inst, i, *move, *best):
                    best = move
            if best is not None and prefers(inst, i, *best, r, t[r]):
                r2 = best[0]
                flow[i][r] -= 1
                flow[i][r2] += 1
                t[r], t[r2] = link_rate(inst, flow, r), best[1]
                moved = True
        if not moved:
            return BestResponseResult(RoutingProfile(flow), rounds, "converged")
    return BestResponseResult(RoutingProfile(flow), max_rounds, "budget-exhausted")


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
    equilibrium set is reported, not raised.  A negative `cap`, and two
    sources beyond the scan's size limit, are rejected before any work, even
    where no profile is enumerated.
    """
    check_cap(cap)
    check_scan_size(inst)
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
