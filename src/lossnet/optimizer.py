"""Traffic-maximizing routing: threshold/balancing search plus an exhaustive oracle.

Two structural facts drive the fast solver.  In every maximizer of the total
delivered rate, (1) a source that relays traffic for others keeps all of its
own users on the direct path, and (2) sorting sources by non-increasing user
count, there is a split position: sources before it receive no relayed
traffic, sources after it keep all their own users direct.  The solver
therefore scans every split position and every total number of relayed users
B, extracts the B users from the donor prefix so the donors' direct loads stay
as equal as possible, and spreads them over the receiver suffix so the
receivers' offered loads stay as equal as possible.  Both balancing rules are
exact greedy minimizers of the convex per-link blocking sum, realized
incrementally with heaps.

`brute_force_optimal` enumerates every routing profile and is the ground
truth the solver is validated against on small instances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InternalCheckError
from .model import (
    Instance,
    RoutingProfile,
    compositions,
    count_profiles,
    total_traffic,
)

#: Relative window within which two total-traffic values count as tied.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class OptimalSolution:
    """A maximizer of the total delivered rate.

    u/v are per-source direct and relayed-in counts in the instance's own
    index order; `profile` is a concrete flow matrix realizing them.
    `threshold` is the 1-based split position in non-increasing user-count
    order (sources at positions <= threshold receive nothing; positions
    beyond it keep all own users direct); `b` is the number of relayed users.
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


def _profile_from_aggregates(
    counts: tuple[int, ...], u: list[int], v: list[int]
) -> RoutingProfile:
    """Any flow matrix consistent with (u, v): donors fill receivers in index order."""
    m = len(counts)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = u[i]
    need = v[:]
    for i in range(m):
        spare = counts[i] - u[i]
        for j in range(m):
            if spare == 0:
                break
            if j == i or need[j] == 0:
                continue
            take = min(spare, need[j])
            rows[i][j] += take
            spare -= take
            need[j] -= take
    if any(need):
        raise InternalCheckError(f"aggregates not realizable: u={u} v={v} counts={counts}")
    return RoutingProfile(tuple(tuple(r) for r in rows))


def solve_optimal(inst: Instance) -> OptimalSolution:
    """Maximize total delivered rate over all pure routing profiles.

    Runs in O(n * m log m) over the split-position/B double loop, well under
    the O(m n^2) budget.  Ties are broken deterministically: the all-direct
    seed candidate wins exact ties, then lower split position, then lower B.
    """
    canon, perm = inst.canonicalized()
    counts = canon.user_counts
    m, phi, mu, qbar = canon.m, canon.phi, canon.mu, canon.qbar

    # Seed with the all-direct profile; the loop below never evaluates B = 0.
    best_u = list(counts)
    best_v = [0] * m
    best_frac = sum(mu / (c * phi + mu) for c in counts)
    best_tr = mu * m - mu * best_frac
    best_split, best_b = m, 0

    # split == m leaves no receivers: only the all-direct case, already seeded.
    for split in range(1, m):
        donors = list(range(split))
        receivers = list(range(split, m))
        u = [counts[l] for l in donors]
        v = [0] * len(receivers)
        # Heaps realize "remove from the largest direct load" and "add to the
        # smallest offered load", ties resolved at the lowest index.
        donor_heap = [(-u[l], l) for l in donors]
        heapq.heapify(donor_heap)
        recv_heap = [(counts[j] * phi + mu, j - split) for j in receivers]
        heapq.heapify(recv_heap)
        frac = sum(mu / (counts[l] * phi + mu) for l in donors) + sum(
            mu / (counts[j] * phi + mu) for j in receivers
        )
        for b in range(1, sum(counts[:split]) + 1):
            neg_ul, l = heapq.heappop(donor_heap)
            ul = -neg_ul
            frac -= mu / (ul * phi + mu)
            ul -= 1
            frac += mu / (ul * phi + mu)
            u[l] = ul
            heapq.heappush(donor_heap, (-ul, l))

            load, r = heapq.heappop(recv_heap)
            frac -= mu / load
            load += qbar * phi
            frac += mu / load
            v[r] += 1
            heapq.heappush(recv_heap, (load, r))

            tr = mu * m - mu * frac
            if tr > best_tr:
                best_tr = tr
                best_u = u[:] + [counts[j] for j in receivers]
                best_v = [0] * split + v[:]
                best_split, best_b = split, b

    prof_canon = _profile_from_aggregates(counts, best_u, best_v)
    # Map back to the instance's original source order.
    u_orig = [0] * m
    v_orig = [0] * m
    flow_orig = [[0] * m for _ in range(m)]
    for a in range(m):
        u_orig[perm[a]] = best_u[a]
        v_orig[perm[a]] = best_v[a]
        for bpos in range(m):
            flow_orig[perm[a]][perm[bpos]] = prof_canon.flow[a][bpos]
    profile = RoutingProfile(tuple(tuple(r) for r in flow_orig))
    return OptimalSolution(
        u=tuple(u_orig),
        v=tuple(v_orig),
        profile=profile,
        tr=total_traffic(inst, profile),
        threshold=best_split,
        b=best_b,
    )


def _split_feasible(counts, u, v, split: int) -> bool:
    """True iff some non-increasing ordering of user counts realizes `split`.

    Donors (u_i < n_i) must sit in the first `split` positions, receivers
    (v_i > 0) after them; sources tied on count may be ordered freely.
    Putting the largest neutrals in the prefix is optimal, so checking that
    one construction decides feasibility.
    """
    m = len(counts)
    donors = [i for i in range(m) if u[i] < counts[i]]
    receivers = [i for i in range(m) if v[i] > 0]
    if set(donors) & set(receivers):
        return False
    if len(donors) > split or len(receivers) > m - split:
        return False
    neutrals = sorted(
        (i for i in range(m) if i not in donors and i not in receivers),
        key=lambda i: -counts[i],
    )
    prefix = donors + neutrals[: split - len(donors)]
    suffix = receivers + neutrals[split - len(donors):]
    if len(prefix) != split:
        return False
    lo = min(counts[i] for i in prefix)
    hi = max((counts[i] for i in suffix), default=0)
    return lo >= hi


def _derive_threshold(counts, u, v) -> int | None:
    """Smallest valid split position for (u, v), or None if none exists."""
    m = len(counts)
    for split in range(1, m + 1):
        if _split_feasible(counts, u, v, split):
            return split
    return None


def brute_force_optimal(inst: Instance, cap: int = 10_000_000) -> OptimalSolution:
    """Exhaustive maximizer over every routing profile; ground truth.

    Among traffic-tied maximizers prefers the one with the most direct-path
    users, then the earliest in lexicographic enumeration order; that pick
    always satisfies the structural rules even when q = 0 makes ties abound.
    """
    total = count_profiles(inst)
    if total > cap:
        raise CapacityError(
            f"instance has {total} profiles, above the enumeration cap {cap}"
        )
    m, phi, mu, qbar = inst.m, inst.phi, inst.mu, inst.qbar
    counts = inst.user_counts

    # Per-row composition tables; the last row is evaluated vectorized.
    row_comps = [np.array(list(compositions(n, m)), dtype=np.int64) for n in counts]
    weights = []
    for i in range(m):
        w = np.full(m, qbar * phi)
        w[i] = phi
        weights.append(row_comps[i] * w)  # (C_i, m) offered-load contributions

    last = m - 1
    w_last = weights[last]
    diag_last = row_comps[last][:, last]

    best_tr = -1.0
    best_sum_u = -1
    best_flow: tuple[tuple[int, ...], ...] | None = None

    def consider(tr: float, sum_u: int, flow) -> None:
        nonlocal best_tr, best_sum_u, best_flow
        tie = abs(tr - best_tr) <= _TIE_REL * max(1.0, abs(tr), abs(best_tr))
        if tr > best_tr and not tie:
            best_tr, best_sum_u, best_flow = tr, sum_u, flow
        elif tie and sum_u > best_sum_u:
            best_tr, best_sum_u, best_flow = max(tr, best_tr), sum_u, flow

    def rec(i: int, prefix_t: np.ndarray, prefix_u: int, rows: list[tuple[int, ...]]):
        if i == last:
            t = prefix_t[None, :] + w_last  # (C_last, m)
            tr = (t * mu / (t + mu)).sum(axis=1)
            blk_best = float(tr.max())
            tie_mask = np.abs(tr - blk_best) <= _TIE_REL * max(1.0, blk_best)
            sum_u = prefix_u + diag_last
            cand_sum = int(sum_u[tie_mask].max())
            idx = int(np.nonzero(tie_mask & (sum_u == cand_sum))[0][0])
            flow = tuple(rows) + (tuple(int(x) for x in row_comps[last][idx]),)
            consider(float(tr[idx]), cand_sum, flow)
            return
        for k in range(row_comps[i].shape[0]):
            rows.append(tuple(int(x) for x in row_comps[i][k]))
            rec(i + 1, prefix_t + weights[i][k], prefix_u + int(row_comps[i][k, i]), rows)
            rows.pop()

    rec(0, np.zeros(m), 0, [])
    assert best_flow is not None
    profile = RoutingProfile(best_flow)
    u = profile.u()
    v = profile.v()
    split = _derive_threshold(counts, u, v)
    if split is None:
        raise InternalCheckError(
            f"brute-force maximizer violates the split structure: flow={best_flow}"
        )
    return OptimalSolution(
        u=u,
        v=v,
        profile=profile,
        tr=total_traffic(inst, profile),
        threshold=split,
        b=sum(v),
    )


def check_optimal_structure(sol: OptimalSolution) -> list[StructureViolation]:
    """Violations of the structural rules every maximizer must satisfy.

    Empty list iff: stored u/v/b agree with the profile; every source has
    u_i = n_i or v_i = 0; and the stored split position is realizable under
    some non-increasing user-count ordering (ties reorderable).
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
    elif not _split_feasible(counts, sol.u, sol.v, sol.threshold):
        bad = next(
            (i for i in range(m) if sol.u[i] < counts[i] and sol.v[i] > 0),
            -1,
        )
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
