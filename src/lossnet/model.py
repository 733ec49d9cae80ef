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

`link_rates` and `delivered` are the one home of T_i and of the delivered
sum, on ints or on arrays of profiles alike.  `profile_blocks` is the one
profile enumerator and the one place the profile-count cap is enforced;
every exhaustive search walks its blocks.

All functions here are pure and all types immutable; everything is safe to
call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CapacityError, InvalidInputError

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

    def canonicalized(self) -> tuple["Instance", tuple[int, ...]]:
        """Return (instance sorted by non-increasing count, perm); perm[k] = slot k's source."""
        perm = tuple(sorted(range(self.m), key=lambda i: (-self.user_counts[i], i)))
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


def link_rates(inst: Instance, flow) -> list:
    """Offered rate T_j on each direct link; ``flow[i][j]`` is an int or an array.

    Arrays of counts must share one shape; each element gets its int version's bits.
    """
    qbar, phi, m = inst.qbar, inst.phi, len(flow)
    rates = []
    for j in range(m):
        t = flow[j][j] * 1.0 * phi
        for i in range(m):
            if i != j:
                t = t + flow[i][j] * qbar * phi
        rates.append(t)
    return rates


def sum_left(terms) -> float:
    """The terms added left to right from 0.0.

    Not `sum`, which compensates floats from Python 3.12 on, nor `np.sum`, which pairs terms.
    """
    total = 0.0
    for t in terms:
        total = total + t
    return total


def delivered(inst: Instance, rates) -> float:
    """Delivered rate sum_j T_j * mu / (T_j + mu), added left to right on floats or arrays.

    The loop of `sum_left`, written out: a generator would double a scalar call's time.
    """
    mu, total = inst.mu, 0.0
    for t in rates:
        total = total + t * mu / (t + mu)
    return total


def traffic_rates(inst: Instance, prof: RoutingProfile) -> tuple[float, ...]:
    """Offered Poisson rate T_i on each direct link under the profile."""
    prof.validate_for(inst)
    return tuple(link_rates(inst, prof.flow))


def loss_rate(inst: Instance, prof: RoutingProfile, origin: int, relay: int) -> float:
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


def total_traffic(inst: Instance, prof: RoutingProfile) -> float:
    """Total delivered rate at the destination: sum_i T_i * mu / (T_i + mu)."""
    return delivered(inst, traffic_rates(inst, prof))


def summarize(inst: Instance, prof: RoutingProfile) -> TrafficSummary:
    t = traffic_rates(inst, prof)
    mu, m = inst.mu, inst.m
    return TrafficSummary(
        t=t,
        no_congestion_prob=tuple(mu / (ti + mu) for ti in t),
        class_loss_rate={
            (i, j): class_loss(inst, t, i, j, inst.phi) for i in range(m) for j in range(m)
        },
        total_traffic=delivered(inst, t),
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


#: Most profiles in one block yielded by `profile_blocks`.
BLOCK = 1024


def check_cap(cap: int | None) -> None:
    """Reject a negative enumeration cap, before any work."""
    if cap is not None and cap < 0:
        raise InvalidInputError(f"enumeration cap must be non-negative, got {cap}")


def profile_blocks(inst: Instance, cap: int | None = None) -> Iterator[np.ndarray]:
    """Every valid profile as (k, m, m) int64 flow blocks, k <= BLOCK.

    Profiles come in `iter_profiles` order.  CapacityError (more profiles
    than `cap`) and InvalidInputError (a negative `cap`, or too many users for
    int64) are raised here, before any block is built.  The leading rows are
    walked one composition at a time and the last row is vectorized: heads are
    stacked while it is short, and it is cut into chunks when longer than BLOCK.
    """
    if inst.n >= 2**62:
        raise InvalidInputError(f"{inst.n} users overflow the int64 flow arithmetic")
    check_cap(cap)
    total = count_profiles(inst)
    if cap is not None and total > cap:
        raise CapacityError(f"instance has {total} profiles, above the enumeration cap {cap}")
    m, counts = inst.m, inst.user_counts
    per_block = max(1, BLOCK // math.comb(counts[-1] + m - 1, m - 1))
    return _blocks(_heads(counts[:-1], m), per_block, counts[-1], m)


def _heads(counts: tuple[int, ...], m: int) -> Iterator[tuple[int, ...]]:
    """The leading rows of every profile, flattened, ascending lex."""
    if not counts:
        yield ()
        return
    for row in compositions(counts[0], m):
        for rest in _heads(counts[1:], m):
            yield row + rest


def _blocks(heads, per_block: int, last: int, m: int) -> Iterator[np.ndarray]:
    """Each group of `per_block` heads joined with every chunk of the last row."""
    while group := list(itertools.islice(heads, per_block)):
        lead = np.array(group, dtype=np.int64).reshape(len(group), 1, m - 1, m)
        for tail in _row_chunks(last, m):
            blk = np.empty((len(group), len(tail), m, m), dtype=np.int64)
            blk[:, :, :-1] = lead
            blk[:, :, -1] = tail
            yield blk.reshape(-1, m, m)


def _row_chunks(total: int, m: int) -> Iterator[np.ndarray]:
    """compositions(total, m) as (k, m) int64 arrays of at most BLOCK rows.

    The first m - 2 parts are walked in Python; the last two, (a, rest - a),
    come from one arange per walked prefix.
    """
    if m == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    parts, size = [], 0
    for *prefix, rest in compositions(total, m - 1):
        for start in range(0, rest + 1, BLOCK):
            a = np.arange(start, min(rest + 1, start + BLOCK), dtype=np.int64)
            if size + len(a) > BLOCK:
                yield np.concatenate(parts)
                parts, size = [], 0
            pre = np.full((len(a), m - 2), prefix, dtype=np.int64)
            parts.append(np.column_stack([pre, a, rest - a]))
            size += len(a)
    yield np.concatenate(parts)


def iter_profiles(inst: Instance) -> Iterator[RoutingProfile]:
    """All valid profiles, lexicographically ascending on the flattened flow."""
    for blk in profile_blocks(inst):
        for flow in blk.tolist():
            yield RoutingProfile(flow)


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
    return Instance(tuple(n), phi, mu, q)


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
    return RoutingProfile(tuple(tuple(row) for row in flow))


def profile_to_json(prof: RoutingProfile) -> dict:
    return {"flow": [list(row) for row in prof.flow]}
