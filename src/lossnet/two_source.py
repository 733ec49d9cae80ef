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

`classify` reports t1 and t2 at the state it decides.  They divide by
2*qb, so at q = 1 they are undefined and reported as None; there the
all-direct state is the unique equilibrium (any relayed packet is lost with
certainty, so rerouting to the direct path always strictly helps).

The table only places the cells that can hold an equilibrium.  Each cell is
decided by `_is_ne`, the general conditions of `model._conditions` on the
state's flow, so `classify`, `scan_nash` and `construct_existence_ne` agree
with the characterization by construction.  Because t1 and t2 are linear,
region 2's equilibria in each row u1 form one interval of u2, so
`scan_nash` never builds the (n1+1) x (n2+1) grid: it visits only the rows,
and the few cells of the column u2 = n2, that the table leaves open, and
returns the equilibria as those intervals (`NashIntervals`).  Its memory is
O(rows) for those rows, not for the user counts, until the set is iterated;
then the states are built, once.

Throughout, "source 1" means the source with the larger user count; instances
given in the other order are relabeled internally and results are mapped back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, InvalidInputError
from .model import (
    TOLERANCE,
    Instance,
    RoutingProfile,
    _as_int,
    _conditions,
    _LazyList,
    delivered,
    link_rates,
    total_traffic,
)
from .optimizer import solve_optimal


#: `scan_nash` takes fewer users per source: its float thresholds can miss
#: an equilibrium from 2**52 users on.
MAX_COUNT = 2**50

#: Most interior rows `_region2_rows` decides in one array pass.
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class TwoSourceState:
    """Direct-path counts (u1, u2), indexed as in the given instance."""

    u1: int
    u2: int

    def _checked(self, inst: Instance) -> tuple[int, int]:
        """(u1, u2), each an int from 0 to its source's count in the two-source `inst`."""
        _check_two_sources(inst)
        n1, n2 = inst.user_counts
        return _as_int(self.u1, "u1", 0, n1), _as_int(self.u2, "u2", 0, n2)

    def expand(self, inst: Instance) -> RoutingProfile:
        """The unique flow matrix realizing this state."""
        return RoutingProfile(_state_flow(inst, *self._checked(inst)))


@dataclass(frozen=True)
class TwoSourceVerdict:
    case_id: str  # "1a" | "1b" | "2" | "3" | "4"
    is_ne: bool
    t1_at_u2: float | None
    t2_at_u1: float | None


def _state_flow(inst: Instance, u1, u2):
    """The flow ((u1, n1 - u1), (n2 - u2, u2)) of the state (u1, u2), on ints or arrays."""
    n1, n2 = inst.user_counts
    return (u1, n1 - u1), (n2 - u2, u2)


def _check_two_sources(inst: Instance) -> None:
    if inst.m != 2:
        raise InvalidInputError(f"two-source analysis requires m = 2, got m = {inst.m}")


def _threshold(inst: Instance, n_self: int, n_other: int, u_other):
    """t_self given the other source's direct count (an int or an array)."""
    qb = inst.qbar
    qm = inst.q * inst.mu / inst.phi
    return (qm + u_other * (1.0 + qb * qb) + (n_self + 1) * qb - n_other * qb * qb) / (2.0 * qb)


def _is_ne(canon: Instance, a1, a2):
    """Conditions (i) and (ii) of `model._conditions` at the state (a1, a2) of a sorted instance.

    On ints the verdict is a bool, reached in plain Python; on arrays that
    broadcast together it is a boolean array.
    """
    _, entries = _conditions(canon, _state_flow(canon, a1, a2))
    if isinstance(a1, np.ndarray) or isinstance(a2, np.ndarray):
        return ~np.any([bad for *_, bad in entries], axis=0)
    return not any(bad for *_, bad in entries)


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
    u = state._checked(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    a1, a2 = u[perm[0]], u[perm[1]]
    is_ne = _is_ne(canon, a1, a2)
    th = (None, None) if canon.q == 1.0 else (_threshold(canon, n1, n2, a2),
                                              _threshold(canon, n2, n1, a1))
    return TwoSourceVerdict(_case_id(n1, n2, a1, a2), is_ne, th[perm[0]], th[perm[1]])


def check_scan_size(inst: Instance) -> None:
    """Reject two sources with MAX_COUNT users or more on one of them."""
    if inst.m == 2 and max(inst.user_counts) >= MAX_COUNT:
        raise InvalidInputError(
            f"the scan takes under 2**50 users per source, got {inst.user_counts}")


def _floor(x: float, bound: int) -> int:
    """floor(x) of x clipped into [-bound, bound], so that infinities have one too."""
    return math.floor(min(max(x, -bound), bound))


def _region2_rows(canon: Instance, a1: np.ndarray, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Region 2's equilibria [lo, hi] below u2 = n2 in each interior row a1.

    Within a row, u1 >= t1(u2) - 1 holds on a down-set of u2 and
    u2 >= t2(u1) - 1 on an up-set (`_threshold` is monotone in its last
    argument, in float arithmetic too), so the equilibria form one interval;
    rows with lo > hi have none.  Its ends are placed by solving both
    conditions for u2, widened by one state each way (rounding moves them by
    far less) and by `extra` more for the conditions' slack, and then moved
    inward until `_is_ne` holds at each end.  The rows are decided
    `ROW_BLOCK` at a time, so beside the two int64 arrays returned the pass
    holds O(ROW_BLOCK) memory at any user count.
    """
    n1, n2 = canon.user_counts
    qb = canon.qbar
    lo, hi = np.empty_like(a1), np.empty_like(a1)
    for start in range(0, a1.size, ROW_BLOCK):
        a, lo_a, hi_a = (x[start : start + ROW_BLOCK] for x in (a1, lo, hi))
        lo_a[:] = np.clip(np.ceil(_threshold(canon, n2, n1, a) - 1.0) - 1.0 - extra, 0, n2)
        # t1 rises by (1 + qb^2) / (2 qb) per unit of u2.
        top = (a + 1.0 - _threshold(canon, n1, n2, 0)) * (2.0 * qb) / (1.0 + qb * qb)
        hi_a[:] = np.clip(np.floor(top) + 1.0 + extra, -1, n2 - 1)
        for end, step in ((lo_a, 1), (hi_a, -1)):
            rows = np.flatnonzero(lo_a <= hi_a)
            while rows.size:
                rows = rows[~_is_ne(canon, a[rows], end[rows])]
                end[rows] += step
                rows = rows[lo_a[rows] <= hi_a[rows]]
    return lo, hi


class NashIntervals(_LazyList):
    """The equilibrium states of `scan_nash`, held as the intervals it found.

    In the sorted instance, row ``rows[k]`` holds the states with u2 in
    [lo[k], hi[k]], none when lo[k] > hi[k]: the corner (0, 0), one interval
    per interior row u1, then each cell of the column u2 = n2.  It is a
    sequence of `TwoSourceState`s sorted by (u1, u2) in the given instance's
    indexing.  `len` and `worst_traffic` read the intervals; iterating,
    indexing, `==` against a list and `repr` build that list once, on first
    use, and then behave as it does.
    """

    def __init__(self, canon: Instance, perm, rows, lo, hi) -> None:
        self._canon, self._perm, self._rows, self._lo, self._hi = canon, perm, rows, lo, hi

    def __len__(self) -> int:
        return int(np.maximum(self._hi - self._lo + 1, 0).sum())

    def worst_traffic(self) -> float | None:
        """The least delivered traffic over the states; None when there are none.

        Along a row, T1 and T2 are affine in u2 and delivered traffic is
        concave in each, so its minimum over an interval sits at an end: the
        two ends of every interval are evaluated once, over arrays of counts,
        in the sorted instance, where each state has its given order's bits.
        """
        keep = self._lo <= self._hi
        if not keep.any():
            return None
        rows, canon = self._rows[keep], self._canon
        flow = _state_flow(canon, np.concatenate((rows, rows)),
                           np.concatenate((self._lo[keep], self._hi[keep])))
        return float(delivered(canon, link_rates(canon, flow)).min())

    def _build(self) -> list[TwoSourceState]:
        width = np.maximum(self._hi - self._lo + 1, 0)
        # The intervals in their order: a stable sort on the instance's first
        # coordinate leaves ties in ascending order of the other.
        a1 = np.repeat(self._rows, width)
        a2 = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - self._lo, width)
        states = np.stack((a1, a2), axis=1)[:, list(self._perm)]
        states = states[np.argsort(states[:, 0], kind="stable")].tolist()
        return [TwoSourceState(a, b) for a, b in states]


def scan_nash(inst: Instance) -> NashIntervals:
    """All equilibrium states on the (u1, u2) grid, as intervals sorted by (u1, u2).

    Evaluates only the cells that can hold an equilibrium: the corner
    (0, 0); on the column u2 = n2, the all-direct state and the few cells
    around t1(n2) where region 3 lies; and region 2's interval of u2 in
    each interior row u1 (`_region2_rows`) that can have one, which needs
    u1 >= t1(0) - 1 and t2(u1) - 1 <= n2.  Each bound is widened by a margin
    that covers rounding and the conditions' slack.  Time and memory are
    O(rows) for those rows: the states are not built until the result is
    iterated, indexed, compared or printed, which then costs O(|NE|) and one
    stable sort.  A count of MAX_COUNT or more is rejected before any work.
    """
    _check_two_sources(inst)
    check_scan_size(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    column, rows = [n1], np.arange(0)
    lo = hi = rows
    # `_threshold` divides by 2 * qb.  At q = 1 any user who relays gains by
    # going direct, unless that gain is below the tolerance, as it can be
    # only at the corner.
    if canon.q < 1.0:
        qb, bound = canon.qbar, n1 + 2
        s = (1.0 + qb * qb) / (2.0 * qb)  # the slope of t1 in u2 and of t2 in u1
        # The conditions' slack of TOLERANCE in load units spans up to
        # TOLERANCE / (2 qb) cells; the margins grow by `extra` cells once
        # that nears half a cell.
        extra = math.floor(TOLERANCE / qb)
        top = _floor(_threshold(canon, n1, n2, n2), bound)
        column = [*range(max(1, top - 2 - extra), min(n1 - 1, top + 2 + extra) + 1), n1]
        first = _floor(_threshold(canon, n1, n2, 0) - 1.0 - s * (1 + extra), bound) - 1
        last = 1 - _floor((_threshold(canon, n2, n1, 0) - (n2 + 1 + extra)) / s, bound)
        rows = np.arange(max(1, first), min(n1 - 1, last) + 1)
        if rows.size:
            lo, hi = _region2_rows(canon, rows, extra)
    # The corner (0, 0) and the column's cells, decided in one pass, are one-cell
    # intervals: the corner goes before the rows, the column after, one array at a time.
    a1, a2 = np.array([0, *column]), np.array([0] + [n2] * len(column))
    keep = _is_ne(canon, a1, a2)
    a1, a2, k = a1[keep], a2[keep], int(keep[0])
    rows = np.concatenate((a1[:k], rows, a1[k:]))
    lo = np.concatenate((a2[:k], lo, a2[k:]))
    return NashIntervals(canon, perm, rows, lo, np.concatenate((a2[:k], hi, a2[k:])))


def construct_existence_ne(inst: Instance) -> TwoSourceState:
    """A guaranteed equilibrium with u1 > 0 and u2 = n2.

    All-direct when the grand condition holds; otherwise u2 = n2 with the
    first u1 that `_is_ne` admits among floor(t1(n2)) and the cells one and
    two below and above it, clipped into [1, n1 - 1].  Re-checked on return.
    """
    _check_two_sources(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    if _is_ne(canon, n1, n2):
        a = (n1, n2)
    else:
        top = math.floor(_threshold(canon, n1, n2, n2))
        cells = [min(max(top + d, 1), n1 - 1) for d in (0, -1, 1, -2, 2)]
        a = (next((a1 for a1 in cells if _is_ne(canon, a1, n2)), cells[0]), n2)
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
            "pass" if len(states) == 1 and states[0] == all_direct else "fail"
        )
    else:
        results["unique_all_direct_ne"] = "not-applicable"
    return results

