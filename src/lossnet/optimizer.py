"""Traffic-maximizing routing: threshold/balancing search plus an exhaustive oracle.

A donor routes some of its own users away (u_i < n_i), a receiver's link
carries relayed users (v_i > 0).  In every maximizer of the total delivered
rate no source is both, and a split separates the donors from the receivers in
non-increasing user-count order.

Split rule: a 1-based split s is realizable for (u, v) iff some non-increasing
order of the counts, ties ordered freely, puts every donor at a position <= s
and every receiver after s.  Each tie ordered donors first and receivers last
leaves the most room, so these splits run from the last donor's position to the
first receiver's (`_splits`).

Flow rule: lay the donors' spare users on one line in index order, and the
receivers' relayed users likewise; donor i sends receiver j the users where
their two intervals overlap (`_flow`).

The solver scans every split position.  Within a split, relayed users are
popped one at a time: donors give them up from the largest direct load down
and receivers take them at the smallest offered load, so the donors' direct
loads stay as equal as possible and so do the receivers' offered loads.  Both
balancing rules are exact greedy minimizers of the convex per-link blocking
sum.  Each pop gains less than the one before, so the split's best number of
relayed users B is the last pop that gains.  The loads of any one pop are
water levels, found in O(m) from the counts, so no split lists its pops and
the memory used does not grow with the user counts.

`brute_force_optimal` evaluates every routing profile, block by block from
`model.profile_blocks`, with `model`'s traffic formula, and is the ground
truth the solver is validated against on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .errors import InternalCheckError, InvalidInputError
from .model import Instance, RoutingProfile, delivered, link_rates, profile_blocks, total_traffic

#: Relative window within which two total-traffic values count as tied.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class OptimalSolution:
    """A maximizer of the total delivered rate.

    `profile` is its flow matrix; u/v (per-source direct and relayed-in
    counts, in the instance's own index order) and b = sum(v), the number
    of relayed users, are read from it.  `threshold` is a 1-based split
    realizing (u, v) by the module's split rule: the one where
    `solve_optimal` found the optimum (m for all-direct), the smallest one
    for `brute_force_optimal` (both return all-direct on (3, 2) at q = 1,
    with thresholds 2 and 1).
    """

    profile: RoutingProfile
    tr: float
    threshold: int

    @property
    def u(self) -> tuple[int, ...]:
        return self.profile.u()

    @property
    def v(self) -> tuple[int, ...]:
        return self.profile.v()

    @property
    def b(self) -> int:
        return sum(self.v)


@dataclass(frozen=True)
class StructureViolation:
    rule: str
    source: int
    detail: str


def _splits(counts, u, v) -> range:
    """The realizable split positions of (u, v) by the split rule; empty if none."""
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], v[i] > 0, u[i] >= counts[i]))
    lo = max((p + 1 for p, i in enumerate(order) if u[i] < counts[i]), default=1)
    hi = next((p for p, i in enumerate(order) if v[i] > 0), len(counts))
    return range(lo, hi + 1)


def _flow(counts, u, v) -> list[list[int]]:
    """The flow matrix of (u, v) by the flow rule; raises on unequal sums or a both-role source."""
    spare = [n - d for n, d in zip(counts, u)]
    if sum(spare) != sum(v) or any(s > 0 and r > 0 for s, r in zip(spare, v)):
        raise InternalCheckError(f"aggregates not realizable: u={u} v={v} counts={counts}")
    rows = [[0] * len(counts) for _ in counts]
    for i, d in enumerate(u):
        rows[i][i] = d
    # Overlaps do not depend on the end the walk starts from; from the far
    # ends, each step fills one and uses up a donor or a receiver.
    gives = [[i, s] for i, s in enumerate(spare) if s]
    takes = [[j, r] for j, r in enumerate(v) if r]
    while gives:
        give, take = gives[-1], takes[-1]
        step = min(give[1], take[1])
        rows[give[0]][take[0]] = step
        give[1] -= step
        take[1] -= step
        if not give[1]:
            gives.pop()
        if not take[1]:
            takes.pop()
    return rows


def _donor_pop(donors, b: int) -> tuple[int, int, int]:
    """(level, k, j): the b-th donor pop takes a user off a direct load of `level`.

    Donors give users up from the largest direct load down, one per donor
    with n_l >= L at each level L, in index order, so sum over n_l >= L of
    (n_l - L + 1) pops reach level L.  The b-th pop is at the largest L with
    at least b of them; there the first k donors are at or above L, and it
    is the j-th pop of its level.  `donors` is non-increasing.
    """
    total = 0
    for k, n in enumerate(donors, 1):
        total += n
        below = donors[k] if k < len(donors) else 0
        if total - k * below >= b:
            level = (total - b) // k + 1
            return level, k, b - (total - k * level)
    raise InternalCheckError(f"pop {b} exceeds the donors' {total} users")


def _receiver_pops(counts, qbar: float, b: int) -> tuple[list[int], float]:
    """(takes, load): each receiver's share of the first b receiver pops, and the b-th pop's load.

    Receiver r takes its k-th relayed user (k = 0, 1, ...) at the load
    counts[r] + k*qbar, in users; its offered rate plus mu is that load times
    phi plus mu.  Pops go by (load, r); qbar > 0 and `counts` is
    non-increasing.  The water level is where the receivers below it would
    hold b - 1/2 pops if pops were real numbers, so in exact arithmetic
    between b - p and b - 1 loads of those p receivers lie at or below it.
    Each receiver counts its loads at or below the level exactly, and a heap
    of one load per receiver moves the count to b: up by the smallest loads
    above, or, where loads rounded onto the level, down by the largest below.
    """
    if len(counts) == 1:
        return [b], counts[0] + (b - 1) * qbar
    spent = 0
    for p, n in enumerate(reversed(counts), 1):
        spent += n
        level = (qbar * (b - p - 0.5) + spent) / p
        if p == len(counts) or counts[-p - 1] > level:
            break
    takes = []
    for n in counts:
        k = max(0, math.floor((level - n) / qbar) + 1)
        while k and n + (k - 1) * qbar > level:
            k -= 1
        while n + k * qbar <= level:
            k += 1
        takes.append(k)
    extra = sum(takes) - b + 1
    if extra > 0:
        heap = [(-(n + (k - 1) * qbar), -r) for r, (n, k) in enumerate(zip(counts, takes)) if k]
        heapify(heap)
        for _ in range(extra):
            r = -heappop(heap)[1]
            takes[r] -= 1
            if takes[r]:
                heappush(heap, (-(counts[r] + (takes[r] - 1) * qbar), -r))
    heap = [(n + k * qbar, r) for r, (n, k) in enumerate(zip(counts, takes))]
    heapify(heap)
    for _ in range(b - sum(takes)):
        load, r = heappop(heap)
        takes[r] += 1
        heappush(heap, (counts[r] + takes[r] * qbar, r))
    return takes, load


def _last_gain(donors, receivers, phi: float, mu: float, qbar: float) -> int:
    """The last pop b in 1..sum(donors) that raises the traffic, or 0 if none does.

    Pop b moves a user off donor load d (`_donor_pop`) onto receiver load k
    (`_receiver_pops`): the donor's rate plus mu goes from Y = d*phi + mu to
    X = (d - 1)*phi + mu, the receiver's from r = k*phi + mu to
    r2 = (k + qbar)*phi + mu.  The pop gains iff phi*r*r2 < qbar*phi*X*Y, and
    at an exact tie of integer loads (q = 0, r = X, r2 = Y) both sides round
    alike.  Each side is monotone in b, so the pops that gain are a prefix
    and a binary search finds its end.
    """
    c = qbar * phi

    def gains(d, k):
        receiver = phi * (k * phi + mu) * ((k + qbar) * phi + mu)
        return receiver < c * ((d - 1) * phi + mu) * (d * phi + mu)

    # Pop 1 takes the largest donor's user onto the smallest receiver; testing
    # it first keeps qbar = 0 (q = 1, where no pop gains) out of `_receiver_pops`.
    if not gains(donors[0], receivers[-1]):
        return 0
    lo, hi = 1, sum(donors) + 1  # pop lo gains, pop hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gains(_donor_pop(donors, mid)[0], _receiver_pops(receivers, qbar, mid)[1]):
            lo = mid
        else:
            hi = mid
    return lo


def check_gain_test(inst: Instance) -> None:
    """Reject an instance whose gain test in `_last_gain` would overflow a float."""
    load = inst.n * inst.phi + inst.mu
    if not math.isfinite(inst.phi * load * load):
        raise InvalidInputError("phi*(n*phi + mu)**2, the size of the gain test, "
                                "overflows the float rate arithmetic")


def solve_optimal(inst: Instance) -> OptimalSolution:
    """Maximize total delivered rate over all pure routing profiles.

    For each split, donors give users up at direct loads n_l, n_l - 1, ...,
    1 by (largest load, lowest index), and receivers take them at loads
    n_r, n_r + qbar, n_r + 2*qbar, ... users by (smallest load, lowest
    index).  The split's candidate relays the pops up to `_last_gain`'s and
    is scored by `model.delivered` on `model.link_rates` of its flow, in the
    instance's source order, which is how `model.total_traffic` sets the
    returned tr.  No pop gains at q = 1.

    Time O(m^2 (m + log m log n)) for n users and memory O(m^2), for the
    flow matrices; no list grows with a user count.  Ties are broken
    deterministically: the all-direct seed wins exact ties, then the lower
    split position; within a split a pop that gains nothing is not taken,
    so the lower B wins.  An instance whose gain test would overflow a
    float is rejected before any work.
    """
    check_gain_test(inst)
    canon, perm = inst.canonicalized()
    counts = canon.user_counts
    m, phi, mu, qbar = canon.m, canon.phi, canon.mu, canon.qbar
    # Candidates are scored in the instance's source order: inv[i] is source i's canonical slot.
    inv = sorted(range(m), key=perm.__getitem__)

    def scored(u, v):
        flow = _flow(counts, u, v)
        flow = [[flow[i][j] for j in inv] for i in inv]
        return delivered(inst, link_rates(inst, flow)), flow

    best_tr, best_flow = scored(counts, [0] * m)
    best_split = m
    # split == m leaves no receivers: only the all-direct case, already seeded.
    for split in range(1, m):
        donors, receivers = counts[:split], counts[split:]
        big_b = _last_gain(donors, receivers, phi, mu, qbar)
        if not big_b:
            continue
        level, k, j = _donor_pop(donors, big_b)
        u = [level - 1] * j + [level] * (k - j) + list(counts[k:])
        tr, flow = scored(u, [0] * split + _receiver_pops(receivers, qbar, big_b)[0])
        if tr > best_tr:
            best_tr, best_flow, best_split = tr, flow, split

    profile = RoutingProfile(best_flow)
    return OptimalSolution(profile, total_traffic(inst, profile), best_split)


def brute_force_optimal(inst: Instance, cap: int = 10_000_000) -> OptimalSolution:
    """Exhaustive maximizer over every routing profile; ground truth.

    Among traffic-tied maximizers prefers the one with the most direct-path
    users, then the earliest in lexicographic enumeration order; that pick
    always satisfies the structural rules even when q = 0 makes ties abound.
    """
    best_tr, best_sum_u, best_flow = -1.0, -1, None
    for blk in profile_blocks(inst, cap):
        tr = delivered(inst, link_rates(inst, blk))
        sum_u = np.trace(blk)
        blk_best = float(tr.max())
        tie_mask = np.abs(tr - blk_best) <= _TIE_REL * max(1.0, blk_best)
        cand_sum = int(sum_u[tie_mask].max())
        idx = int(np.flatnonzero(tie_mask & (sum_u == cand_sum))[0])
        cand_tr = float(tr[idx])
        tie = abs(cand_tr - best_tr) <= _TIE_REL * max(1.0, abs(cand_tr), abs(best_tr))
        if (cand_tr > best_tr and not tie) or (tie and cand_sum > best_sum_u):
            best_tr, best_sum_u, best_flow = max(cand_tr, best_tr), cand_sum, blk[..., idx].tolist()

    profile = RoutingProfile(best_flow)
    splits = _splits(inst.user_counts, profile.u(), profile.v())
    if not splits:
        raise InternalCheckError(
            f"brute-force maximizer violates the split structure: flow={best_flow}"
        )
    return OptimalSolution(profile, total_traffic(inst, profile), splits[0])


def check_optimal_structure(sol: OptimalSolution) -> list[StructureViolation]:
    """Violations of the structural rules every maximizer must satisfy.

    Empty list iff every source of the profile has u_i = n_i or v_i = 0,
    and the stored split position is realizable by the module's split rule.
    """
    viols: list[StructureViolation] = []
    m, u, v = sol.profile.m, sol.u, sol.v
    counts = tuple(sum(row) for row in sol.profile.flow)
    for i in range(m):
        if u[i] < counts[i] and v[i] > 0:
            viols.append(
                StructureViolation(
                    "full-or-unrelayed", i,
                    f"u={u[i]} < n={counts[i]} while v={v[i]} > 0",
                )
            )
    if not 1 <= sol.threshold <= m:
        viols.append(
            StructureViolation("threshold-split", -1, f"split {sol.threshold} outside [1, {m}]")
        )
    elif sol.threshold not in _splits(counts, u, v):
        bad = next((i for i in range(m) if u[i] < counts[i] and v[i] > 0), -1)
        viols.append(
            StructureViolation(
                "threshold-split", bad,
                f"no non-increasing ordering realizes split {sol.threshold}",
            )
        )
    return viols


def opt_traffic_upper_bound(inst: Instance) -> float:
    """Closed-form cap on the optimal total traffic: mu*m*(1 - mu/(n1*phi + mu))."""
    n1 = max(inst.user_counts)
    return inst.mu * inst.m * (1.0 - inst.mu / (n1 * inst.phi + inst.mu))
