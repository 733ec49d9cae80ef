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
oracle and the best-response dynamics stay scalar and independent of it; they
share the move rates `_moved_rates` and the comparison `model.prefers`.  The
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
    _LazyList,
    check_cap,
    class_loss,
    delivered,
    link_rate,
    link_rates,
    prefers,
    profile_blocks,
    summarize,
)
from .optimizer import solve_optimal
from .two_source import check_scan_size, scan_nash

#: Most profiles `enumerate_nash` and `poa_report` enumerate unless told otherwise.
ENUMERATION_CAP = 1_000_000


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


def _moved_rates(inst: Instance, flow, i: int) -> list:
    """Link r2's rate with one more source-i user on it, for every r2, by `link_rate`."""
    rows = list(flow)
    row = rows[i] = list(flow[i])
    rates = []
    for r2 in range(inst.m):
        row[r2] += 1
        rates.append(link_rate(inst, rows, r2))
        row[r2] -= 1
    return rates


def is_nash_deviation_oracle(inst: Instance, prof: RoutingProfile) -> NEVerdict:
    """Equilibrium verdict by trying every unilateral one-user move."""
    prof.validate_for(inst)
    u, v = prof.u(), prof.v()
    i_star = min(range(inst.m), key=lambda i: (u[i] + v[i] * inst.qbar, i))
    phi, t = inst.phi, link_rates(inst, prof.flow)
    viols: list[Violation] = []
    for i in range(inst.m):
        moved = _moved_rates(inst, prof.flow, i)
        for r in range(inst.m):
            if prof.flow[i][r] < 1:
                continue
            for r2, t2 in enumerate(moved):
                if r2 != r and prefers(inst, i, r2, t2, r, t[r]):
                    kind = "(i)" if r == i else "(ii)-DP" if r2 == i else "(ii)-IP"
                    viols.append(Violation(f"condition-{kind}", i, r2 if r == i else r,
                                           class_loss(inst, t[r], i, r, phi),
                                           class_loss(inst, t2, i, r2, phi)))
    return NEVerdict(not viols, i_star, tuple(viols))


class NashProfiles(_LazyList):
    """The equilibria of `enumerate_nash`, held as their flow columns.

    A sequence of (RoutingProfile, TrafficSummary) pairs in lexicographic
    order.  It holds the k equilibria as one (m, m, k) int64 array and their
    k delivered rates, each with the bits `summarize` gives its profile.
    `len` and `worst_traffic` read the arrays; iterating, indexing, `==`
    against a list and `repr` build the list of pairs once, on first use
    (`model._LazyList`).
    """

    def __init__(self, inst: Instance, cols: np.ndarray, traffic: np.ndarray) -> None:
        self._inst, self._cols, self._traffic = inst, cols, traffic

    def __len__(self) -> int:
        return self._cols.shape[2]

    def _pair(self, flow) -> tuple[RoutingProfile, TrafficSummary]:
        prof = RoutingProfile(flow)
        return prof, summarize(self._inst, prof)

    def worst_traffic(self) -> float | None:
        """The least traffic, from the pair of its first equilibrium; None when there is none."""
        if not len(self):
            return None
        return self._pair(self._cols[..., int(np.argmin(self._traffic))].tolist())[1].total_traffic

    def _build(self) -> list[tuple[RoutingProfile, TrafficSummary]]:
        return [self._pair(flow) for flow in self._cols.transpose(2, 0, 1).tolist()]


def enumerate_nash(inst: Instance, cap: int = ENUMERATION_CAP) -> NashProfiles:
    """Every equilibrium profile with its traffic summary, lexicographic order.

    Each block of `profile_blocks`, which checks the cap before the first,
    is decided here and keeps its equilibrium columns; their traffic is one
    `delivered(link_rates(...))` over all of them.  The profiles and
    summaries are built only when the result is iterated, indexed, compared
    or printed; `NashProfiles.worst_traffic` builds one.
    """
    cols = []
    for blk in profile_blocks(inst, cap):
        _, entries = _conditions(inst, blk)
        cols.append(blk[..., ~np.any([bad for *_, bad in entries], axis=0)])
    cols = np.concatenate(cols, axis=2)
    return NashProfiles(inst, cols, delivered(inst, link_rates(inst, cols)))


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
    stops.  A move changes links r and r2 only: r2 keeps its `_moved_rates`
    rate, which reads the same column, and r is re-rated by `link_rate`, so
    every rate has the bits of a full recomputation.  `max_rounds` must be
    an int of at least 1 and `seed` a non-negative int, bools rejected.
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
            for move in enumerate(_moved_rates(inst, flow, i)):
                if move[0] != r and (best is None or prefers(inst, i, *move, *best)):
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


@dataclass(frozen=True)
class PoAReport:
    """Optimum vs worst equilibrium, with the closed-form bound when defined."""

    tr_opt: float
    tr_worst_ne: float | None
    poa_exact: float | None
    z: float
    poa_bound: float | None
    ne_count: int


def poa_report(inst: Instance, cap: int = ENUMERATION_CAP) -> PoAReport:
    """Exact price of anarchy plus the analytic bound.

    The equilibrium set is `scan_nash`'s for two sources, and otherwise
    enumerated exhaustively (subject to `cap`); the count and the worst
    equilibrium's traffic are read from it by `len` and `worst_traffic`,
    without listing its states.  An empty equilibrium set is reported, not
    raised.  A negative `cap`, and two sources beyond the scan's size limit,
    are rejected before any work, even where no profile is enumerated.
    """
    check_cap(cap)
    check_scan_size(inst)
    tr_opt = solve_optimal(inst).tr
    nes = scan_nash(inst) if inst.m == 2 else enumerate_nash(inst, cap=cap)
    tr_worst = nes.worst_traffic()
    poa_exact = tr_opt / tr_worst if tr_worst else None
    return PoAReport(
        tr_opt=tr_opt,
        tr_worst_ne=tr_worst,
        poa_exact=poa_exact,
        z=mixing_level(inst),
        poa_bound=poa_bound(inst),
        ne_count=len(nes),
    )
