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

The solver scans every split position and every total number of relayed
users B, extracts the B users from the donor prefix so the donors' direct
loads stay as equal as possible, and spreads them over the receiver suffix so
the receivers' offered loads stay as equal as possible.  Both balancing rules
are exact greedy minimizers of the convex per-link blocking sum; for a fixed
split each pops users in one fixed sorted order, so every B is read off one
cumulative sum.

The solver keeps that blocking-sum form, not `model.delivered`, on purpose:
its all-direct seed and its cumsum must round alike.

`brute_force_optimal` evaluates every routing profile, block by block from
`model.profile_blocks`, with `model`'s traffic formula, and is the ground
truth the solver is validated against on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InternalCheckError
from .model import Instance, RoutingProfile, delivered, link_rates, profile_blocks
from .model import sum_left, total_traffic

#: Relative window within which two total-traffic values count as tied.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class OptimalSolution:
    """A maximizer of the total delivered rate.

    u/v are per-source direct and relayed-in counts in the instance's own
    index order; `profile` is a concrete flow matrix realizing them.
    `threshold` is a 1-based split realizing (u, v) by the module's split
    rule: the one where `solve_optimal` found the optimum (m for all-direct),
    the smallest one for `brute_force_optimal` (both return all-direct on
    (3, 2) at q = 1, with thresholds 2 and 1); `b` counts relayed users.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]
    profile: RoutingProfile
    tr: float
    threshold: int
    b: int


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
    rows = [
        [max(0, min(d_end, r_end) - max(d_end - d_len, r_end - r_len))
         for r_end, r_len in zip(accumulate(v), v)]
        for d_end, d_len in zip(accumulate(spare), spare)
    ]
    for i, row in enumerate(rows):
        row[i] = u[i]
    return rows


def solve_optimal(inst: Instance) -> OptimalSolution:
    """Maximize total delivered rate over all pure routing profiles.

    For a split with B donor users, the balancing rules pop users in one fixed
    order: donors give them up at direct loads n_l, n_l - 1, ..., 1 by (largest
    load, lowest index), receivers take them at offered loads n_r*phi + mu,
    then qbar*phi more per user, by (smallest load, lowest index).  So each split
    is two stable sorts, one cumsum and one argmax: O((m - split) * B * log n)
    time and O((m - split) * B) floats, where a heap merge needs O(m) memory
    but B Python steps.  Ties are broken deterministically: the all-direct
    seed candidate wins exact ties, then lower split position, then lower B.
    """
    canon, perm = inst.canonicalized()
    counts = canon.user_counts
    m, phi, mu, qbar = canon.m, canon.phi, canon.mu, canon.qbar

    # Seed with the all-direct profile; the loop below never evaluates B = 0.
    best_u = list(counts)
    best_v = [0] * m
    best_tr = mu * m - mu * sum_left(mu / (c * phi + mu) for c in counts)
    best_split, best_b = m, 0

    # split == m leaves no receivers: only the all-direct case, already seeded.
    for split in range(1, m):
        donors, receivers = counts[:split], counts[split:]
        big_b = sum(donors)
        # Donor l pops at direct loads n_l, n_l - 1, ..., 1, flattened by (l, pop).
        d_src = np.repeat(np.arange(split), donors)
        d_load = np.repeat(np.cumsum(donors), donors) - np.arange(big_b)
        d_pop = np.argsort(-d_load, kind="stable")
        # Receiver r's offered loads as iterated sums, B + 1 per row; a row's
        # last entry is never among the first B pops.
        loads = np.full((len(receivers), big_b + 1), qbar * phi)
        loads[:, 0] = np.array(receivers) * phi + mu
        r_load = np.cumsum(loads, axis=1, out=loads).ravel()
        r_pop = np.argsort(r_load, kind="stable")[:big_b]
        # Pop b changes the blocking sum by four terms, summed in this order
        # after the seed, so every tr matches applying the pops one by one.
        d_old = d_load[d_pop]
        acc = np.empty(4 * big_b + 1)
        acc[0] = sum_left(mu / (c * phi + mu) for c in donors)
        acc[0] += sum_left(mu / (c * phi + mu) for c in receivers)
        acc[1::4] = -(mu / (d_old * phi + mu))
        acc[2::4] = mu / ((d_old - 1) * phi + mu)
        acc[3::4] = -(mu / r_load[r_pop])
        acc[4::4] = mu / r_load[r_pop + 1]
        tr = mu * m - mu * np.cumsum(acc, out=acc)[4::4]
        k = int(np.argmax(tr))
        if tr[k] > best_tr:
            took = np.bincount(r_pop[: k + 1] // (big_b + 1), minlength=len(receivers))
            best_u = np.bincount(d_src[d_pop[k + 1:]], minlength=split).tolist()
            best_u += list(receivers)
            best_v = [0] * split + took.tolist()
            best_tr, best_split, best_b = tr[k], split, k + 1

    # Relabel to the instance's source order: inv[i] is source i's canonical slot.
    inv = sorted(range(m), key=perm.__getitem__)
    flow = _flow(counts, best_u, best_v)
    profile = RoutingProfile(tuple(tuple(flow[a][c] for c in inv) for a in inv))
    return OptimalSolution(
        u=profile.u(),
        v=profile.v(),
        profile=profile,
        tr=total_traffic(inst, profile),
        threshold=best_split,
        b=best_b,
    )


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
    u, v = profile.u(), profile.v()
    splits = _splits(inst.user_counts, u, v)
    if not splits:
        raise InternalCheckError(
            f"brute-force maximizer violates the split structure: flow={best_flow}"
        )
    return OptimalSolution(
        u=u,
        v=v,
        profile=profile,
        tr=total_traffic(inst, profile),
        threshold=splits[0],
        b=sum(v),
    )


def check_optimal_structure(sol: OptimalSolution) -> list[StructureViolation]:
    """Violations of the structural rules every maximizer must satisfy.

    Empty list iff: stored u/v/b agree with the profile; every source has
    u_i = n_i or v_i = 0; and the stored split position is realizable by
    the module's split rule.
    """
    viols: list[StructureViolation] = []
    prof = sol.profile
    m = prof.m
    counts = tuple(sum(row) for row in prof.flow)
    pu, pv = prof.u(), prof.v()
    for i in range(m):
        if sol.u[i] != pu[i] or sol.v[i] != pv[i]:
            viols.append(
                StructureViolation(
                    "consistency", i,
                    f"stored (u,v)=({sol.u[i]},{sol.v[i]}) but profile gives ({pu[i]},{pv[i]})",
                )
            )
    if sol.b != sum(sol.v) or sum(counts) - sum(sol.u) != sum(sol.v):
        viols.append(
            StructureViolation(
                "consistency", -1,
                f"b={sol.b}, sum(n-u)={sum(counts) - sum(sol.u)}, sum(v)={sum(sol.v)}",
            )
        )
    for i in range(m):
        if sol.u[i] < counts[i] and sol.v[i] > 0:
            viols.append(
                StructureViolation(
                    "full-or-unrelayed", i,
                    f"u={sol.u[i]} < n={counts[i]} while v={sol.v[i]} > 0",
                )
            )
    if not 1 <= sol.threshold <= m:
        viols.append(
            StructureViolation("threshold-split", -1, f"split {sol.threshold} outside [1, {m}]")
        )
    elif sol.threshold not in _splits(counts, sol.u, sol.v):
        bad = next((i for i in range(m) if sol.u[i] < counts[i] and sol.v[i] > 0), -1)
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
