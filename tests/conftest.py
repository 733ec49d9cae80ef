"""Shared helpers for the test suite: seeded random instances and profiles,
every profile one at a time, one-user moves, the definitional deviation
oracle, the exact-rational traffic of a flow, the paper's two-source
thresholds, the equilibrium-traffic floor, an instance as JSON, and the
three-way agreement check on one two-source state."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import lossnet as ln
from lossnet.equilibrium import NEVerdict, Violation
from lossnet.model import class_loss, prefers, profile_blocks
from lossnet.two_source import TwoSourceState, classify


def random_instance(
    rng: random.Random,
    m_choices=(2, 3),
    n_max: int = 10,
    mu_choices=(0.5, 1.0, 2.0, 5.0),
    q_choices=(0.0, 0.1, 0.5, 0.9, 1.0),
    phi: float = 1.0,
) -> ln.Instance:
    m = rng.choice(m_choices)
    counts = tuple(rng.randint(1, n_max) for _ in range(m))
    return ln.Instance(counts, phi, rng.choice(mu_choices), rng.choice(q_choices))


def random_profile(rng: random.Random, inst: ln.Instance) -> ln.RoutingProfile:
    rows = []
    for n in inst.user_counts:
        row = [0] * inst.m
        for _ in range(n):
            row[rng.randrange(inst.m)] += 1
        rows.append(tuple(row))
    return ln.RoutingProfile(tuple(rows))


def iter_profiles(inst: ln.Instance):
    """Every valid profile, one at a time, in `profile_blocks` order."""
    for blk in profile_blocks(inst):
        for flow in blk.transpose(2, 0, 1).tolist():
            yield ln.RoutingProfile(flow)


def moved(prof: ln.RoutingProfile, i: int, r: int, r2: int) -> ln.RoutingProfile:
    """`prof` with one user of class (i, r) moved to route r2."""
    rows = [list(row) for row in prof.flow]
    rows[i][r] -= 1
    rows[i][r2] += 1
    return ln.RoutingProfile(rows)


def reference_oracle(inst: ln.Instance, prof: ln.RoutingProfile) -> NEVerdict:
    """The deviation oracle by its definition: every one-user move builds its
    profile, whose link rates come from `traffic_rates`, and is compared with
    the current route by `prefers`; violations in (source, route, target) order."""
    t, m = ln.traffic_rates(inst, prof), inst.m
    load = [prof.u()[i] + prof.v()[i] * inst.qbar for i in range(m)]
    viols = []
    for i, r, r2 in itertools.product(range(m), repeat=3):
        if prof.flow[i][r] < 1 or r2 == r:
            continue
        t2 = ln.traffic_rates(inst, moved(prof, i, r, r2))[r2]
        if prefers(inst, i, r2, t2, r, t[r]):
            kind = "(i)" if r == i else "(ii)-DP" if r2 == i else "(ii)-IP"
            viols.append(Violation(f"condition-{kind}", i, r2 if r == i else r,
                                   class_loss(inst, t[r], i, r, inst.phi),
                                   class_loss(inst, t2, i, r2, inst.phi)))
    return NEVerdict(not viols, load.index(min(load)), tuple(viols))


def exact_traffic(inst: ln.Instance, flow) -> Fraction:
    """The total delivered rate of `flow` in exact rational arithmetic.

    phi, mu and q are parsed from their shortest decimal repr, so q = 0.3
    means 3/10 and not the binary double nearest it.
    """
    phi, mu, q = (Fraction(str(x)) for x in (inst.phi, inst.mu, inst.q))
    total = Fraction(0)
    for j, row in enumerate(flow):
        relayed = sum(r[j] for i, r in enumerate(flow) if i != j)
        t = phi * (row[j] + (1 - q) * relayed)
        total += t * mu / (t + mu)
    return total


def paper_thresholds(inst: ln.Instance, u1: int, u2: int) -> tuple[Fraction, Fraction] | None:
    """The paper's thresholds (t1(u2), t2(u1)) at the two-source state (u1, u2), exactly.

    Source i's threshold, given the other source's direct count u_o, is
    (q*mu/phi + u_o*(1 + qb^2) + (n_i + 1)*qb - n_o*qb^2) / (2*qb) with qb = 1 - q,
    in either source order; None at q = 1, where it divides by zero.  phi, mu
    and q are parsed as `exact_traffic` parses them.
    """
    phi, mu, q = (Fraction(str(x)) for x in (inst.phi, inst.mu, inst.q))
    if q == 1:
        return None
    qb, n, u = 1 - q, inst.user_counts, (u1, u2)
    return tuple((q * mu / phi + u[1 - i] * (1 + qb * qb) + (n[i] + 1) * qb - n[1 - i] * qb * qb)
                 / (2 * qb) for i in (0, 1))


def ne_traffic_floor(inst: ln.Instance) -> float | None:
    """The closed-form lower bound mu * m * (1 - mu / (z*phi + mu)) on every
    equilibrium's traffic, defined only when the mixing level z is positive."""
    z = ln.mixing_level(inst)
    if z <= 0:
        return None
    return inst.mu * (inst.m - inst.m * inst.mu / (z * inst.phi + inst.mu))


def instance_json(inst: ln.Instance) -> dict:
    """`inst` in the instance interchange schema."""
    return {"m": inst.m, "n": list(inst.user_counts), "phi": inst.phi, "mu": inst.mu,
            "q": inst.q}


def count_shapes(max_m: int, max_total: int) -> list[tuple[int, ...]]:
    """All non-increasing user-count tuples with m <= max_m, sum <= max_total."""
    shapes: list[tuple[int, ...]] = []

    def rec(prefix: list[int], budget: int, cap: int, m: int) -> None:
        if len(prefix) == m:
            shapes.append(tuple(prefix))
            return
        slots_left = m - len(prefix) - 1
        for v in range(min(cap, budget - slots_left), 0, -1):
            rec(prefix + [v], budget - v, v, m)

    for m in range(1, max_m + 1):
        rec([], max_total, max_total, m)
    return shapes


def cross_check_state(inst: ln.Instance, state: TwoSourceState) -> bool:
    """True iff classify, the general characterization, and the oracle agree."""
    prof = state.expand(inst)
    a = classify(inst, state).is_ne
    b = ln.is_nash_characterization(inst, prof).is_ne
    c = ln.is_nash_deviation_oracle(inst, prof).is_ne
    return a == b == c
