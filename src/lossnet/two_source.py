"""Closed-form equilibrium analysis for the two-source game.

With two sources the whole profile is pinned down by the pair (u1, u2) of
direct-path counts, since every user not on its direct path takes the single
indirect route through the other source.  Writing qb = 1 - q, the boundary

    t1(u2) = (q*mu/phi + u2*(1 + qb^2) + (n1 + 1)*qb - n2*qb^2) / (2*qb)

(and t2 with the roles of the sources swapped) separates equilibrium from
non-equilibrium states, and the (u1, u2) grid splits into five regions:

    1a: u1 = n1, u2 < n2           never an equilibrium
    1b: u1 = 0,  u2 > 0            never an equilibrium
    2:  u1 < n1, u2 < n2           NE iff u1 >= t1(u2) - 1 and u2 >= t2(u1) - 1
    3:  0 < u1 < n1, u2 = n2       NE iff t1(n2) - 1 <= u1 <= t1(n2)
    4:  u1 = n1, u2 = n2           NE iff n1*qb <= q*mu/phi + n2 + qb

The thresholds divide by 2*qb, so at q = 1 they are undefined; there the
all-direct state is the unique equilibrium (any relayed packet is lost with
certainty, so rerouting to the direct path always strictly helps), and every
mixed state, which relays at least one user, is not one.  `classify`,
`scan_nash` and `construct_existence_ne` all evaluate the one region
predicate `_is_ne`, on scalars or on arrays.

Because t1 and t2 are linear, region 2's equilibria in each row u1 form one
interval of u2, so `scan_nash` never builds the (n1+1) x (n2+1) grid: it
places each row's interval ends by inverting the thresholds and confirms
them with `_is_ne`, in O(n1 + |NE|) memory, which reaches the paper's
heavy-traffic sizes (1e6 users and more per source).

Throughout, "source 1" means the source with the larger user count; instances
given in the other order are relabeled internally and results are mapped back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, InvalidInputError, UndefinedThresholdError
from .model import TOLERANCE, Instance, RoutingProfile, total_traffic
from .equilibrium import is_nash_characterization, is_nash_deviation_oracle
from .optimizer import solve_optimal


@dataclass(frozen=True)
class TwoSourceState:
    """Direct-path counts (u1, u2), indexed as in the given instance."""

    u1: int
    u2: int

    def expand(self, inst: Instance) -> RoutingProfile:
        """The unique flow matrix realizing this state."""
        _check_two_sources(inst)
        n1, n2 = inst.user_counts
        if not (0 <= self.u1 <= n1 and 0 <= self.u2 <= n2):
            raise InvalidInputError(f"state {self} out of range for counts {inst.user_counts}")
        return RoutingProfile(((self.u1, n1 - self.u1), (n2 - self.u2, self.u2)))


@dataclass(frozen=True)
class TwoSourceVerdict:
    case_id: str  # "1a" | "1b" | "2" | "3" | "4"
    is_ne: bool
    t1_at_u2: float | None
    t2_at_u1: float | None


def _check_two_sources(inst: Instance) -> None:
    if inst.m != 2:
        raise InvalidInputError(f"two-source analysis requires m = 2, got m = {inst.m}")


def _check_sorted(inst: Instance) -> None:
    if inst.user_counts[0] < inst.user_counts[1]:
        raise InvalidInputError(
            "threshold formulas assume user_counts[0] >= user_counts[1]; "
            "relabel the sources first"
        )


def _threshold(inst: Instance, n_self: int, n_other: int, u_other):
    """t_self given the other source's direct count (an int or an array)."""
    qb = inst.qbar
    qm = inst.q * inst.mu / inst.phi
    return (qm + u_other * (1.0 + qb * qb) + (n_self + 1) * qb - n_other * qb * qb) / (2.0 * qb)


def _checked_threshold(inst: Instance, name: str, self_idx: int, u_other: int) -> float:
    _check_two_sources(inst)
    _check_sorted(inst)
    if inst.q == 1.0:
        raise UndefinedThresholdError(f"{name} is undefined at q = 1 (divides by 2*(1-q))")
    counts = inst.user_counts
    return _threshold(inst, counts[self_idx], counts[1 - self_idx], u_other)


def t1(inst: Instance, u2: int) -> float:
    """Largest u1 (up to the -1 slack) tolerated at equilibrium, given u2."""
    return _checked_threshold(inst, "t1", 0, u2)


def t2(inst: Instance, u1: int) -> float:
    """Mirror threshold for the smaller source, given u1."""
    return _checked_threshold(inst, "t2", 1, u1)


def _is_ne(canon: Instance, a1, a2):
    """The region conditions at (a1, a2) of a sorted instance.

    Works alike on ints and on arrays that broadcast together: `scan_nash`
    passes a vector of rows with one column, or two equal-length vectors.
    """
    n1, n2 = canon.user_counts
    if canon.q == 1.0:
        # Every other state relays a user, who always gains by going direct.
        return (a1 == n1) & (a2 == n2)
    qb = canon.qbar
    qm = canon.q * canon.mu / canon.phi
    th1 = _threshold(canon, n1, n2, a2)
    th2 = _threshold(canon, n2, n1, a1)
    # Regions 2 and 3 share u1 < n1, u1 >= t1 - 1 and the exclusion of 1b.
    ne = a1 >= th1 - 1.0 - TOLERANCE
    ne &= a1 < n1
    ne &= (a1 > 0) | (a2 == 0)
    # Region 3 (the row u2 = n2) caps u1 at t1; region 2 needs u2 >= t2 - 1.
    side = a1 <= th1 + TOLERANCE
    side &= a2 == n2
    side |= (a2 >= th2 - 1.0 - TOLERANCE) & (a2 < n2)
    ne &= side
    ne |= (a1 == n1) & ((a2 == n2) & (n1 * qb <= qm + n2 + qb + TOLERANCE))  # region 4
    return ne


def _case_id(n1: int, n2: int, a1: int, a2: int) -> str:
    if a1 == n1 and a2 == n2:
        return "4"
    if a1 == n1:
        return "1a"
    if a1 == 0 and a2 > 0:
        return "1b"
    if a2 == n2:
        return "3"
    return "2"


def classify(inst: Instance, state: TwoSourceState) -> TwoSourceVerdict:
    """Equilibrium verdict for one (u1, u2) state via the region conditions."""
    _check_two_sources(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    u = (state.u1, state.u2)
    a1, a2 = u[perm[0]], u[perm[1]]
    if not (0 <= a1 <= n1 and 0 <= a2 <= n2):
        raise InvalidInputError(f"state {state} out of range for counts {inst.user_counts}")
    is_ne = bool(_is_ne(canon, a1, a2))
    th = (None, None) if canon.q == 1.0 else (t1(canon, a2), t2(canon, a1))
    return TwoSourceVerdict(_case_id(n1, n2, a1, a2), is_ne, th[perm[0]], th[perm[1]])


def _region2_rows(canon: Instance, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Region 2's equilibria [lo, hi] below u2 = n2 in each interior row a1.

    Within a row, u1 >= t1(u2) - 1 holds on a down-set of u2 and
    u2 >= t2(u1) - 1 on an up-set (`_threshold` is monotone in its last
    argument, in float arithmetic too), so the equilibria form one interval;
    rows with lo > hi have none.  Its ends are placed by solving both
    conditions for u2, widened by one state each way (rounding moves them by
    far less), and then moved inward until `_is_ne` holds at each end.
    """
    n1, n2 = canon.user_counts
    qb = canon.qbar
    lo = np.ceil(_threshold(canon, n2, n1, a1) - 1.0) - 1.0
    lo = np.clip(lo, 0, n2).astype(np.int64)
    # t1 rises by (1 + qb^2) / (2 qb) per unit of u2.
    hi = (a1 + 1.0 - _threshold(canon, n1, n2, 0)) * (2.0 * qb) / (1.0 + qb * qb)
    hi = np.clip(np.floor(hi) + 1.0, -1, n2 - 1).astype(np.int64)
    for end, step in ((lo, 1), (hi, -1)):
        rows = np.flatnonzero(lo <= hi)
        while rows.size:
            rows = rows[~_is_ne(canon, a1[rows], end[rows])]
            end[rows] += step
            rows = rows[lo[rows] <= hi[rows]]
    return lo, hi


def scan_nash(inst: Instance) -> list[TwoSourceState]:
    """All equilibrium states on the (u1, u2) grid, sorted by (u1, u2).

    Scans rows, not the grid: region 2 contributes one interval of u2 per
    interior row u1 (`_region2_rows`), the column u2 = n2 (regions 3 and 4)
    and the corner (0, 0) are evaluated directly, and the rest of the rows
    u1 = 0 and u1 = n1 (regions 1a and 1b) never qualify.  Memory is
    O(n1 + |NE|) for the larger count n1; time is that plus one stable sort
    of the states.
    """
    _check_two_sources(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    corner = np.array([0] if _is_ne(canon, 0, 0) else [], dtype=np.int64)
    column = np.flatnonzero(_is_ne(canon, np.arange(n1 + 1), n2))
    rows = lo = hi = np.arange(0)
    if canon.q < 1.0:  # at q = 1 no interior row qualifies (see `_is_ne`)
        rows = np.arange(1, n1)
        lo, hi = _region2_rows(canon, rows)
    width = np.maximum(hi - lo + 1, 0)
    # Corner, intervals row by row, then the column: a stable sort on the
    # instance's first coordinate leaves ties in ascending order of the other.
    a1 = np.concatenate((corner, np.repeat(rows, width), column))
    a2 = np.concatenate((
        corner,
        np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - lo, width),
        np.full(column.size, n2),
    ))
    states = np.stack((a1, a2), axis=1)[:, list(perm)]
    states = states[np.argsort(states[:, 0], kind="stable")].tolist()
    return [TwoSourceState(a, b) for a, b in states]


def construct_existence_ne(inst: Instance) -> TwoSourceState:
    """A guaranteed equilibrium with u1 > 0 and u2 = n2.

    All-direct when the grand condition holds; otherwise the integer
    floor(t1(n2)), clamped into [t1(n2) - 1, t1(n2)] and [1, n1 - 1], paired
    with u2 = n2.  The result is re-checked before being returned.
    """
    _check_two_sources(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    if _is_ne(canon, n1, n2):
        a = (n1, n2)
    else:
        a = (min(max(math.floor(t1(canon, n2)), 1), n1 - 1), n2)
    state = TwoSourceState(a[perm[0]], a[perm[1]])
    verdict = classify(inst, state)
    if not verdict.is_ne:
        raise InternalCheckError(f"constructed state {state} is not an equilibrium")
    return state


def check_corollaries(inst: Instance) -> dict[str, str]:
    """Evaluate the three structural consequences on this instance.

    Returns "pass" / "fail" / "not-applicable" for each of:
      optimal_all_direct_is_ne -- if all-direct maximizes traffic, it is a NE;
      all_indirect_ne_iff      -- (0, 0) is a NE exactly when n1 = n2 + 1 with
                                  q = 0, or n1 = n2 with
                                  n1*(1 - qb^2) <= qb - q*mu/phi;
      unique_all_direct_ne     -- if n1*qb < q*mu/phi + n2 + qb and q > 2/n,
                                  all-direct is the only NE.
    """
    _check_two_sources(inst)
    canon, _ = inst.canonicalized()
    n1, n2 = canon.user_counts
    qb = canon.qbar
    qm = canon.q * canon.mu / canon.phi
    results: dict[str, str] = {}

    all_direct = TwoSourceState(inst.user_counts[0], inst.user_counts[1])
    tr_opt = solve_optimal(inst).tr
    tr_all_direct = total_traffic(inst, all_direct.expand(inst))
    if tr_all_direct >= tr_opt - TOLERANCE * max(1.0, tr_opt):
        results["optimal_all_direct_is_ne"] = (
            "pass" if classify(inst, all_direct).is_ne else "fail"
        )
    else:
        results["optimal_all_direct_is_ne"] = "not-applicable"

    expected_zero = (n1 == n2 + 1 and inst.q == 0.0) or (
        n1 == n2 and n1 * (1.0 - qb * qb) <= qb - qm + TOLERANCE
    )
    actual_zero = classify(inst, TwoSourceState(0, 0)).is_ne
    results["all_indirect_ne_iff"] = "pass" if expected_zero == actual_zero else "fail"

    if n1 * qb < qm + n2 + qb - TOLERANCE and inst.q > 2.0 / inst.n + TOLERANCE:
        states = scan_nash(inst)
        results["unique_all_direct_ne"] = (
            "pass" if states == [all_direct] else "fail"
        )
    else:
        results["unique_all_direct_ne"] = "not-applicable"
    return results


def cross_check_state(inst: Instance, state: TwoSourceState) -> bool:
    """True iff classify, the general characterization, and the oracle agree."""
    prof = state.expand(inst)
    a = classify(inst, state).is_ne
    b = is_nash_characterization(inst, prof).is_ne
    c = is_nash_deviation_oracle(inst, prof).is_ne
    return a == b == c
