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
certainty, so rerouting to the direct path always strictly helps).

The table only places the cells that can hold an equilibrium.  Each cell is
decided by `_is_ne`, the general conditions of `model._conditions` on the
state's flow, so `classify`, `scan_nash` and `construct_existence_ne` agree
with the characterization by construction.  Because t1 and t2 are linear,
region 2's equilibria in each row u1 form one interval of u2, so
`scan_nash` never builds the (n1+1) x (n2+1) grid: it visits only the rows,
and the few cells of the column u2 = n2, that the table leaves open, so its
memory follows those rows and the equilibria, not the user counts.

Throughout, "source 1" means the source with the larger user count; instances
given in the other order are relabeled internally and results are mapped back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, InvalidInputError, UndefinedThresholdError
from .model import TOLERANCE, Instance, RoutingProfile, _as_int, _conditions, total_traffic
from .optimizer import solve_optimal


#: `scan_nash` takes fewer users per source: its float thresholds can miss
#: an equilibrium from 2**52 users on.
MAX_COUNT = 2**50


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
        u1, u2 = self._checked(inst)
        n1, n2 = inst.user_counts
        return RoutingProfile(((u1, n1 - u1), (n2 - u2, u2)))


@dataclass(frozen=True)
class TwoSourceVerdict:
    case_id: str  # "1a" | "1b" | "2" | "3" | "4"
    is_ne: bool
    t1_at_u2: float | None
    t2_at_u1: float | None


def _check_two_sources(inst: Instance) -> None:
    if inst.m != 2:
        raise InvalidInputError(f"two-source analysis requires m = 2, got m = {inst.m}")


def _threshold(inst: Instance, n_self: int, n_other: int, u_other):
    """t_self given the other source's direct count (an int or an array)."""
    qb = inst.qbar
    qm = inst.q * inst.mu / inst.phi
    return (qm + u_other * (1.0 + qb * qb) + (n_self + 1) * qb - n_other * qb * qb) / (2.0 * qb)


def _checked_threshold(inst: Instance, name: str, self_idx: int, u_other: int) -> float:
    _check_two_sources(inst)
    if inst.user_counts[0] < inst.user_counts[1]:
        raise InvalidInputError("threshold formulas assume user_counts[0] >= user_counts[1]; "
                                "relabel the sources first")
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
    """Conditions (i) and (ii) of `model._conditions` at the state (a1, a2) of a sorted instance.

    On ints the verdict is a bool, reached in plain Python; on arrays that
    broadcast together it is a boolean array.
    """
    n1, n2 = canon.user_counts
    _, entries = _conditions(canon, ((a1, n1 - a1), (n2 - a2, a2)))
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
    th = (None, None) if canon.q == 1.0 else (t1(canon, a2), t2(canon, a1))
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
    inward until `_is_ne` holds at each end.
    """
    n1, n2 = canon.user_counts
    qb = canon.qbar
    lo = np.ceil(_threshold(canon, n2, n1, a1) - 1.0) - 1.0 - extra
    lo = np.clip(lo, 0, n2).astype(np.int64)
    # t1 rises by (1 + qb^2) / (2 qb) per unit of u2.
    hi = (a1 + 1.0 - _threshold(canon, n1, n2, 0)) * (2.0 * qb) / (1.0 + qb * qb)
    hi = np.clip(np.floor(hi) + 1.0 + extra, -1, n2 - 1).astype(np.int64)
    for end, step in ((lo, 1), (hi, -1)):
        rows = np.flatnonzero(lo <= hi)
        while rows.size:
            rows = rows[~_is_ne(canon, a1[rows], end[rows])]
            end[rows] += step
            rows = rows[lo[rows] <= hi[rows]]
    return lo, hi


def scan_nash(inst: Instance) -> list[TwoSourceState]:
    """All equilibrium states on the (u1, u2) grid, sorted by (u1, u2).

    Evaluates only the cells that can hold an equilibrium: the corner
    (0, 0); on the column u2 = n2, the all-direct state and the few cells
    around t1(n2) where region 3 lies; and region 2's interval of u2 in
    each interior row u1 (`_region2_rows`) that can have one, which needs
    u1 >= t1(0) - 1 and t2(u1) - 1 <= n2.  Each bound is widened by a margin
    that covers rounding and the conditions' slack.  Memory is O(rows + |NE|)
    for those rows; time is that plus one stable sort of the states.  A
    count of MAX_COUNT or more is rejected before any work.
    """
    _check_two_sources(inst)
    check_scan_size(inst)
    canon, perm = inst.canonicalized()
    n1, n2 = canon.user_counts
    corner = np.array([0] if _is_ne(canon, 0, 0) else [], dtype=np.int64)
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
        lo, hi = _region2_rows(canon, rows, extra)
    column = np.array(column)
    column = column[_is_ne(canon, column, n2)]
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
        top = math.floor(t1(canon, n2))
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
            "pass" if states == [all_direct] else "fail"
        )
    else:
        results["unique_all_direct_ne"] = "not-applicable"
    return results

