"""Network model: instances, routing profiles, and closed-form traffic rates.

The system has m source nodes feeding one destination.  Source i hosts
``user_counts[i]`` users, each emitting packets as an independent Poisson
stream of rate ``phi``.  A user routes all of its packets either over its own
direct link (its "direct path") or through a sidelink to another source j and
then over j's direct link (an "indirect path" relayed by j).  Sidelinks drop
each packet independently with probability ``q``; direct links are bufferless
with exponential(``mu``) transmission times, so a packet that arrives while
its link is transmitting another packet is dropped (a congestion loss).

With every user on a pure route, the offered rate on direct link i is

    T_i = u_i * phi + v_i * (1 - q) * phi,

where u_i users of source i use their direct path and v_i users of other
sources relay through i.  A Poisson stream of rate T offered to a bufferless
exponential(mu) link sees no congestion with probability mu / (T + mu), so the
delivered rate on link i is T_i * mu / (T_i + mu) and the loss rate of a
single user is

    direct path:          phi * T_i / (T_i + mu)
    indirect via relay j: phi * (q + (1 - q) * T_j / (T_j + mu)).

All functions here are pure and all types immutable; everything is safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidInputError

#: Absolute tolerance for equality/ordering comparisons on rates and loads.
#: Every quantity compared in equilibrium logic is a low-degree rational
#: function of small integers and the parameters, so real gaps dwarf this.
TOLERANCE = 1e-9


def _as_int(x, name: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInputError(f"{name} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class Instance:
    """Immutable network parameters.

    user_counts -- users per source (all >= 1); phi -- per-user Poisson
    arrival rate; mu -- exponential service rate of every direct link;
    q -- sidelink loss probability in [0, 1].
    """

    user_counts: tuple[int, ...]
    phi: float
    mu: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "user_counts", tuple(self.user_counts))
        if len(self.user_counts) < 1:
            raise InvalidInputError("user_counts must contain at least one source")
        for i, n in enumerate(self.user_counts):
            _as_int(n, f"user_counts[{i}]")
            if n < 1:
                raise InvalidInputError(f"user_counts[{i}] must be >= 1, got {n}")
        if not (self.phi > 0 and math.isfinite(self.phi)):
            raise InvalidInputError(f"phi must be a positive finite real, got {self.phi!r}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise InvalidInputError(f"mu must be a positive finite real, got {self.mu!r}")
        if not (0.0 <= self.q <= 1.0):
            raise InvalidInputError(f"q must lie in [0, 1], got {self.q!r}")

    @property
    def m(self) -> int:
        return len(self.user_counts)

    @property
    def n(self) -> int:
        """Total number of users."""
        return sum(self.user_counts)

    @property
    def qbar(self) -> float:
        # Always derived at the use site, never stored, so it cannot drift.
        return 1.0 - self.q

    def canonical_order(self) -> tuple[int, ...]:
        """Source indices sorted by non-increasing user count (ties by index)."""
        return tuple(sorted(range(self.m), key=lambda i: (-self.user_counts[i], i)))

    def canonicalized(self) -> tuple["Instance", tuple[int, ...]]:
        """Return (sorted instance, perm) with perm[k] = original index at slot k."""
        perm = self.canonical_order()
        inst = Instance(tuple(self.user_counts[i] for i in perm), self.phi, self.mu, self.q)
        return inst, perm


@dataclass(frozen=True)
class RoutingProfile:
    """An m x m matrix of per-class user counts.

    ``flow[i][j]`` is the number of users of source i whose route goes over
    direct link j; the diagonal entry is the direct-path count.  Row i must
    sum to the instance's user count at source i (every user picks exactly
    one route).
    """

    flow: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.flow)
        object.__setattr__(self, "flow", rows)
        m = len(rows)
        if m < 1:
            raise InvalidInputError("flow matrix must be non-empty")
        for i, row in enumerate(rows):
            if len(row) != m:
                raise InvalidInputError(f"flow row {i} has length {len(row)}, expected {m}")
            for j, c in enumerate(row):
                _as_int(c, f"flow[{i}][{j}]")
                if c < 0:
                    raise InvalidInputError(f"flow[{i}][{j}] must be >= 0, got {c}")

    @property
    def m(self) -> int:
        return len(self.flow)

    def validate_for(self, inst: Instance) -> None:
        """Raise InvalidInputError unless the profile is valid for inst."""
        if self.m != inst.m:
            raise InvalidInputError(f"profile has {self.m} sources, instance has {inst.m}")
        for i, row in enumerate(self.flow):
            if sum(row) != inst.user_counts[i]:
                raise InvalidInputError(
                    f"row {i} sums to {sum(row)}, expected {inst.user_counts[i]}"
                )

    def u(self) -> tuple[int, ...]:
        """Direct-path user count per source (the diagonal)."""
        return tuple(self.flow[i][i] for i in range(self.m))

    def v(self) -> tuple[int, ...]:
        """Relayed users arriving at each source (off-diagonal column sums)."""
        m = self.m
        return tuple(sum(self.flow[i][j] for i in range(m) if i != j) for j in range(m))

    def y(self) -> tuple[int, ...]:
        """Users whose route crosses each direct link: y_i = u_i + v_i."""
        return tuple(a + b for a, b in zip(self.u(), self.v()))

    def indirect_edges(self) -> tuple[tuple[int, int], ...]:
        """Occupied indirect classes: pairs (i, j), i != j, with flow[i][j] >= 1."""
        m = self.m
        return tuple(
            (i, j) for i in range(m) for j in range(m) if i != j and self.flow[i][j] >= 1
        )

    def move(self, origin: int, src_relay: int, dst_relay: int) -> "RoutingProfile":
        """Profile with one user of class (origin, src_relay) moved to dst_relay."""
        if self.flow[origin][src_relay] < 1:
            raise InvalidInputError(f"class ({origin}, {src_relay}) has no user to move")
        rows = [list(r) for r in self.flow]
        rows[origin][src_relay] -= 1
        rows[origin][dst_relay] += 1
        return RoutingProfile(tuple(tuple(r) for r in rows))

    @classmethod
    def all_direct(cls, inst: Instance) -> "RoutingProfile":
        """Every user on its own direct path."""
        m = inst.m
        return cls(
            tuple(
                tuple(inst.user_counts[i] if i == j else 0 for j in range(m))
                for i in range(m)
            )
        )


@dataclass(frozen=True)
class TrafficSummary:
    """Closed-form per-link and per-class quantities for one profile.

    ``class_loss_rate`` maps every (origin, relay) pair to the loss rate a
    user of that class would see; the class need not be occupied.
    """

    t: tuple[float, ...]
    no_congestion_prob: tuple[float, ...]
    total_traffic: float
    class_loss_rate: dict[tuple[int, int], float] = field(repr=False)


def _check_index(idx: int, m: int, name: str) -> None:
    if not isinstance(idx, int) or isinstance(idx, bool) or not (0 <= idx < m):
        raise InvalidInputError(f"{name} must be a source index in [0, {m}), got {idx!r}")


def traffic_rates(inst: Instance, prof: RoutingProfile) -> tuple[float, ...]:
    """Offered Poisson rate T_i on each direct link under the profile."""
    prof.validate_for(inst)
    qbar, phi = inst.qbar, inst.phi
    m = inst.m
    rates = []
    for j in range(m):
        t = float(prof.flow[j][j]) * phi
        for i in range(m):
            if i != j:
                t += prof.flow[i][j] * qbar * phi
        rates.append(t)
    return tuple(rates)


def loss_rate(
    inst: Instance, prof: RoutingProfile, origin: int, relay: int
) -> float:
    """Loss rate of a user of source `origin` routing via `relay`.

    The class need not be occupied; rates are those induced by `prof`.
    Loss probability is this value divided by phi.
    """
    _check_index(origin, inst.m, "origin")
    _check_index(relay, inst.m, "relay")
    return class_loss(inst, traffic_rates(inst, prof), origin, relay, inst.phi)


def class_loss(
    inst: Instance, t: tuple[float, ...], origin: int, relay: int, phi: float = 1.0
) -> float:
    """Loss rate of class (origin, relay) under link rates `t`, per user of rate `phi`.

    At the default phi = 1 this is the class loss probability.
    """
    if origin == relay:
        return phi * t[origin] / (t[origin] + inst.mu)
    return phi * (inst.q + inst.qbar * t[relay] / (t[relay] + inst.mu))


def delivered_rate(t: float, mu: float) -> float:
    """Successfully transmitted rate t * mu / (t + mu) on one direct link."""
    return t * mu / (t + mu)


def total_traffic(inst: Instance, prof: RoutingProfile) -> float:
    """Total delivered rate at the destination: sum_i T_i * mu / (T_i + mu)."""
    return sum(delivered_rate(t, inst.mu) for t in traffic_rates(inst, prof))


def summarize(inst: Instance, prof: RoutingProfile) -> TrafficSummary:
    t = traffic_rates(inst, prof)
    mu, m = inst.mu, inst.m
    return TrafficSummary(
        t=t,
        no_congestion_prob=tuple(mu / (ti + mu) for ti in t),
        class_loss_rate={
            (i, j): class_loss(inst, t, i, j, inst.phi) for i in range(m) for j in range(m)
        },
        total_traffic=sum(delivered_rate(ti, mu) for ti in t),
    )


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def count_profiles(inst: Instance) -> int:
    """Number of valid routing profiles: prod_i C(n_i + m - 1, m - 1)."""
    total = 1
    for n in inst.user_counts:
        total *= math.comb(n + inst.m - 1, inst.m - 1)
    return total


def iter_profiles(inst: Instance) -> Iterator[RoutingProfile]:
    """All valid profiles, lexicographically ascending on the flattened flow."""

    def rec(i: int, rows: list[tuple[int, ...]]) -> Iterator[RoutingProfile]:
        if i == inst.m:
            yield RoutingProfile(tuple(rows))
            return
        for row in compositions(inst.user_counts[i], inst.m):
            rows.append(row)
            yield from rec(i + 1, rows)
            rows.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# JSON interchange.  Instance: {"m": int, "n": [int, ...], "phi": float,
# "mu": float, "q": float}.  Profile: {"flow": [[int, ...], ...]}.
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str) -> object:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidInputError(f"missing field '{key}'")
    return obj[key]


def _as_number(x: object, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInputError(f"field '{name}' must be a number, got {x!r}")
    return float(x)


def instance_from_json(obj: dict) -> Instance:
    """Parse and validate the instance schema, naming the first bad field."""
    m = _require(obj, "m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"field 'm' must be a positive integer, got {m!r}")
    n = _require(obj, "n")
    if not isinstance(n, list) or len(n) != m:
        raise InvalidInputError(f"field 'n' must be a list of {m} integers")
    for i, ni in enumerate(n):
        if isinstance(ni, bool) or not isinstance(ni, int) or ni < 1:
            raise InvalidInputError(f"field 'n[{i}]' must be a positive integer, got {ni!r}")
    phi = _as_number(_require(obj, "phi"), "phi")
    mu = _as_number(_require(obj, "mu"), "mu")
    q = _as_number(_require(obj, "q"), "q")
    try:
        return Instance(tuple(n), phi, mu, q)
    except InvalidInputError as exc:
        raise InvalidInputError(str(exc)) from None


def instance_to_json(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "n": list(inst.user_counts),
        "phi": inst.phi,
        "mu": inst.mu,
        "q": inst.q,
    }


def profile_from_json(obj: dict) -> RoutingProfile:
    flow = _require(obj, "flow")
    if not isinstance(flow, list) or not flow:
        raise InvalidInputError("field 'flow' must be a non-empty list of rows")
    for i, row in enumerate(flow):
        if not isinstance(row, list):
            raise InvalidInputError(f"field 'flow[{i}]' must be a list")
        for j, c in enumerate(row):
            if isinstance(c, bool) or not isinstance(c, int):
                raise InvalidInputError(f"field 'flow[{i}][{j}]' must be an integer, got {c!r}")
    try:
        return RoutingProfile(tuple(tuple(row) for row in flow))
    except InvalidInputError as exc:
        raise InvalidInputError(str(exc)) from None


def profile_to_json(prof: RoutingProfile) -> dict:
    return {"flow": [list(row) for row in prof.flow]}
