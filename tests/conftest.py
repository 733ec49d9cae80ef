"""Shared helpers for the test suite: seeded random instances and profiles,
the exact-rational traffic of a flow, and the three-way agreement check on
one two-source state."""

from __future__ import annotations

import random
from fractions import Fraction

import lossnet as ln
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
