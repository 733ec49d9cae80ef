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

`link_rate` and `delivered` are the one home of T_i and of the delivered
sum, on ints or on arrays of profiles alike; `link_rates` is `link_rate` on
every link.  `profile_blocks` is the one profile enumerator and the one
place the profile-count cap is enforced; every exhaustive search walks its
blocks.  A block is an (m, m, k) int64 array with the k profiles on the
last, contiguous axis, so ``blk[i][j]`` is one count per profile and
`link_rates` takes a block as it takes one flow.  Blocks are built from
arrays of each row's compositions, joined by `_product`: the blocks of the
leading rows, regrouped, are the heads that the last row's chunks are joined
to, so no row is walked in Python one composition at a time.

`_conditions` is the only copy of the equilibrium conditions (i) and (ii)
of `equilibrium`, over ints or equal-shape rows of counts, as `link_rate`
is: the characterization runs it on one profile in plain Python,
`enumerate_nash` on each block, and `two_source` on (u1, u2) states.
`prefers` compares two routes of one user for the oracle and the dynamics.
It and `_conditions` compare in users, with one tie policy: only a slack
above `TOLERANCE` counts, so indifference counts as equilibrium.

`_as_int` is the package's one integer check: every count, flow entry, state,
index, seed, round budget, cap and thread count goes through it.  Its twin
`_as_real` checks phi, mu, q, horizons and sigma counts and returns Python
floats, so every analysis runs in float64 whatever type the caller passed.

All functions here are pure and all types immutable; everything is safe to
call concurrently.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, InvalidInputError

#: The slack, in users, that a route or a condition must exceed to count as
#: strictly better or violated.
TOLERANCE = 1e-9


def _as_int(x, name: str, least: int | None = None, most: int | None = None) -> int:
    """x if it is an int, not a bool, in [least, most]; else InvalidInputError naming `name`."""
    # A plain int stops at the first, cheapest test.
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
        raise InvalidInputError(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidInputError(f"{name} must be {bound}, got {x!r}")
    if most is not None and x > most:
        raise InvalidInputError(f"{name} must be at most {most}, got {x!r}")
    return x


def _as_real(x, name: str, lo: float = -math.inf, hi: float = math.inf, *,
             exclusive: bool = False) -> float:
    """float(x) if x is a real number, not a bool, in [lo, hi], or (lo, hi) if `exclusive`.

    Else InvalidInputError naming `name`; NaN lies in no interval.
    """
    v = x  # a plain float stops at the first, cheapest test
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InvalidInputError(f"{name} must be a real number, got {x!r}")
        try:
            v = float(x)
        except OverflowError:  # an int beyond the float range; its repr can run to 4300 digits
            raise InvalidInputError(f"{name} is too large for a float") from None
    if (lo < v < hi) if exclusive else (lo <= v <= hi):
        return v
    ends = "()" if exclusive else "[]"
    raise InvalidInputError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {v!r}")


@dataclass(frozen=True)
class Instance:
    """Immutable network parameters.

    user_counts -- users per source (all >= 1); phi -- per-user Poisson
    arrival rate; mu -- exponential service rate of every direct link;
    q -- sidelink loss probability in [0, 1].  The three reals are floats.
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
            _as_int(n, f"user_counts[{i}]", 1)
        if self.n >= 2**1023:
            raise InvalidInputError(f"{self.n} users overflow the float rate arithmetic")
        object.__setattr__(self, "phi", _as_real(self.phi, "phi", 0, math.inf, exclusive=True))
        object.__setattr__(self, "mu", _as_real(self.mu, "mu", 0, math.inf, exclusive=True))
        object.__setattr__(self, "q", _as_real(self.q, "q", 0, 1))
        for name, value in (("n*phi*mu", self.n * self.phi * self.mu),
                            ("n*phi**2", self.n * self.phi * self.phi),
                            ("q*mu/phi", self.q * self.mu / self.phi)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} overflows the float rate arithmetic")

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
        """Return (instance sorted by non-increasing count, perm); perm[k] = slot k's source.

        An instance already in that order is returned as it is.
        """
        perm = tuple(sorted(range(self.m), key=lambda i: (-self.user_counts[i], i)))
        if perm == tuple(range(self.m)):
            return self, perm
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
                _as_int(c, f"flow[{i}][{j}]", 0)

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
    """Closed-form link rates and delivered rate for one profile.

    ``t[i]`` is the offered rate on direct link i, so mu / (t[i] + mu) is the
    link's no-congestion probability; `class_loss` gives any class's loss rate.
    """

    t: tuple[float, ...]
    total_traffic: float


def link_rate(inst: Instance, flow, j: int):
    """Offered rate T_j on direct link j; ``flow[i][j]`` is an int or an array.

    Arrays of counts must share one shape; each element gets its int version's bits.
    """
    qbar, phi = inst.qbar, inst.phi
    t = flow[j][j] * phi
    for i in range(len(flow)):
        if i != j:
            t = t + flow[i][j] * qbar * phi
    return t


def link_rates(inst: Instance, flow) -> list:
    """Offered rate T_j on each direct link, by `link_rate`."""
    return [link_rate(inst, flow, j) for j in range(len(flow))]


def delivered(inst: Instance, rates) -> float:
    """Delivered rate sum_j T_j * mu / (T_j + mu), added left to right on floats or arrays.

    Not `sum`, which compensates floats from Python 3.12 on, nor `np.sum`, which pairs
    terms; a generator would double a scalar call's time.
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
    _as_int(origin, "origin", 0, inst.m - 1)
    _as_int(relay, "relay", 0, inst.m - 1)
    return class_loss(inst, traffic_rates(inst, prof)[relay], origin, relay, inst.phi)


def class_loss(inst: Instance, t: float, origin: int, relay: int, phi: float = 1.0) -> float:
    """Loss rate of class (origin, relay) at rate `t` on link `relay`, per user of rate `phi`.

    At the default phi = 1 this is the class loss probability.
    """
    if origin == relay:
        return phi * t / (t + inst.mu)
    return phi * (inst.q + inst.qbar * t / (t + inst.mu))


def prefers(inst: Instance, i: int, a: int, t_a: float, b: int, t_b: float) -> bool:
    """True when a source-i user loses strictly less on route a than on route b.

    `t_a`, `t_b` are the links' rates with the user on them.  Route r loses
    phi * (1 - w_r * mu / (t_r + mu)), w_r = 1 on link i and qbar on a relay,
    so a wins by the slack (w_a (t_b + mu) - w_b (t_a + mu)) / phi in users.
    """
    w_a = 1.0 if a == i else inst.qbar
    w_b = 1.0 if b == i else inst.qbar
    return (w_a * (t_b + inst.mu) - w_b * (t_a + inst.mu)) / inst.phi > TOLERANCE


def total_traffic(inst: Instance, prof: RoutingProfile) -> float:
    """Total delivered rate at the destination: sum_i T_i * mu / (T_i + mu)."""
    return delivered(inst, traffic_rates(inst, prof))


def summarize(inst: Instance, prof: RoutingProfile) -> TrafficSummary:
    t = traffic_rates(inst, prof)
    return TrafficSummary(t=t, total_traffic=delivered(inst, t))


def _conditions(inst: Instance, flow) -> tuple:
    """Conditions (i) and (ii) on one flow; ``flow[i][j]`` is an int or an equal-shape row.

    Returns the loads and, in verdict order, one (kind, source, link, lhs,
    rhs, violated) entry per condition of each class: (i) on each direct
    class by source, then (ii)-DP and (ii)-IP on each indirect class.  On
    ints every value is a Python float or bool; on rows of counts each is a
    row, and each element gets its int version's bits.
    """
    qbar, qm, m = inst.qbar, inst.q * inst.mu / inst.phi, len(flow)
    u = [flow[i][i] for i in range(m)]
    vq = [sum(flow[i][j] for i in range(m) if i != j) * qbar for j in range(m)]
    load = [u[i] + vq[i] for i in range(m)]
    # The minimum, by a fold that selects with 0/1 factors so that floats and
    # rows take the same steps: x * True + y * False is x, bit for bit, as
    # loads are finite and non-negative.
    load_star = load[0]
    for x in load[1:]:
        load_star = x * (x < load_star) + load_star * (x >= load_star)
    rhs_i, rhs_ip = load_star + qbar + qm, load_star + qbar
    entries, bound_i, bound_ip = [], rhs_i + TOLERANCE, rhs_ip + TOLERANCE
    for i in range(m):
        lhs = qbar * load[i]
        entries.append(("condition-(i)", i, i, lhs, rhs_i, (flow[i][i] > 0) & (lhs > bound_i)))
    # (ii)-IP compares the relay's load with one bound shared by every class.
    over_ip = [load[l] > bound_ip for l in range(m)]
    for i in range(m):
        rhs_dp = qbar * (u[i] + 1 + vq[i]) - qm
        bound_dp = rhs_dp + TOLERANCE
        for l in range(m):
            if l != i:
                occupied = flow[i][l] > 0
                entries.append(("condition-(ii)-DP", i, l, load[l], rhs_dp,
                                occupied & (load[l] > bound_dp)))
                entries.append(("condition-(ii)-IP", i, l, load[l], rhs_ip, occupied & over_ip[l]))
    return load, entries


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


#: Most profiles in one block yielded by `profile_blocks` (at m <= 4; fewer above).
BLOCK = 1024


def check_cap(cap: int | None) -> None:
    """Reject an enumeration cap that is not None or a non-negative int, before any work."""
    if cap is not None:
        _as_int(cap, "enumeration cap", 0)


def profile_blocks(inst: Instance, cap: int | None = None) -> Iterator[np.ndarray]:
    """Every valid profile as (m, m, k) int64 flow blocks, k <= width, profiles last.

    ``blk[i, j]`` is the contiguous row of flow[i][j] over the block's k
    profiles, which come in `iter_profiles` order.  CapacityError (more
    profiles than `cap`) and InvalidInputError (a negative `cap`, or too many
    users for int64) are raised here, before any block is built.  A block
    joins `per_block` consecutive heads (the leading m - 1 rows, regrouped
    from their own blocks) with the last row: all of it when it is short,
    one chunk of it when it is longer than the width.  Each of the m levels
    of the row recursion holds one block, so the width, k's bound, is
    max(1, min(BLOCK, 16 * BLOCK // m**2)): at most 16 * BLOCK entries a block.
    """
    if inst.n >= 2**62:
        raise InvalidInputError(f"{inst.n} users overflow the int64 flow arithmetic")
    check_cap(cap)
    total = count_profiles(inst)
    if cap is not None and total > cap:
        raise CapacityError(f"instance has {total} profiles, above the enumeration cap {cap}")
    return _blocks(inst.user_counts, inst.m, max(1, min(BLOCK, 16 * BLOCK // inst.m**2)))


def _blocks(counts: tuple[int, ...], m: int, width: int) -> Iterator[np.ndarray]:
    """Rows with these user counts, every combination ascending lex, as (len(counts), m, k) blocks.

    k <= `width`.  The heads are the blocks of counts[:-1] (one empty head when
    no row is left).  The last row's size * m entries are built once when at
    most 192 * width, and again for each group of heads otherwise.
    """
    if not counts:
        yield np.empty((0, m, 1), dtype=np.int64)
        return
    size = math.comb(counts[-1] + m - 1, m - 1)
    per_block = max(1, width // size)
    tails = list(_row_chunks(counts[-1], m, width)) if size * m <= 192 * width else None
    for lead in _groups(_blocks(counts[:-1], m, width), per_block):
        for tail in tails or _row_chunks(counts[-1], m, width):
            yield _product(lead, tail[None])


def _groups(blocks, size: int) -> Iterator[np.ndarray]:
    """The columns of consecutive blocks, `size` at a time; the last group may be short."""
    parts, have = [], 0
    for blk in blocks:
        while blk.shape[2]:
            part, blk = blk[..., : size - have], blk[..., size - have :]
            parts.append(part)
            have += part.shape[2]
            if have == size:
                yield np.concatenate(parts, axis=2)
                parts, have = [], 0
    if parts:
        yield np.concatenate(parts, axis=2)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of `a` above rows of `b` for every pair of their columns, `a`'s column slowest.

    `a` is (ra, m, ka) and `b` (rb, m, kb); the result is (ra + rb, m, ka * kb) int64.
    """
    ra, m, ka = a.shape
    out = np.empty((ra + b.shape[0], m, ka, b.shape[2]), dtype=np.int64)
    out[:ra] = a[..., None]
    out[ra:] = b[:, :, None]
    return out.reshape(ra + b.shape[0], m, -1)


def _row_chunks(total: int, m: int, width: int) -> Iterator[np.ndarray]:
    """compositions(total, m) as (m, k) int64 arrays of at most `width` columns.

    The first m - 2 parts are walked in Python; the last two, (a, rest - a),
    come from one arange per walked prefix.
    """
    if m == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    parts, have = [], 0
    for *prefix, rest in compositions(total, m - 1):
        for start in range(0, rest + 1, width):
            a = np.arange(start, min(rest + 1, start + width), dtype=np.int64)
            if have + len(a) > width:
                yield np.concatenate(parts, axis=1)
                parts, have = [], 0
            piece = np.empty((m, len(a)), dtype=np.int64)
            piece[:-2] = np.reshape(prefix, (m - 2, 1))
            piece[-2], piece[-1] = a, rest - a
            parts.append(piece)
            have += len(a)
    yield np.concatenate(parts, axis=1)


class _LazyList(Sequence):
    """A sequence held in a compact form, whose list of items is built once, on first use.

    A subclass gives `__len__` from the compact form and `_build`, which
    returns the list; iterating, indexing, `==` against a list (or another
    such sequence) and `repr` then behave as that list does.
    """

    _list: list | None = None

    def _items(self) -> list:
        if self._list is None:
            self._list = self._build()
        return self._list

    def __getitem__(self, i):
        return self._items()[i]

    def __iter__(self):
        return iter(self._items())

    def __eq__(self, other):
        if isinstance(other, _LazyList):
            other = other._items()
        return self._items() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._items())


def iter_profiles(inst: Instance) -> Iterator[RoutingProfile]:
    """All valid profiles, lexicographically ascending on the flattened flow."""
    for blk in profile_blocks(inst):
        for flow in blk.transpose(2, 0, 1).tolist():
            yield RoutingProfile(flow)


# ---------------------------------------------------------------------------
# JSON interchange.  Instance: {"m": int, "n": [int, ...], "phi": float,
# "mu": float, "q": float}.  Profile: {"flow": [[int, ...], ...]}.
# ---------------------------------------------------------------------------


def _fields(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    """obj, if it is a JSON object with every `required` field and no field outside
    `required` and `optional`; else InvalidInputError naming the first missing or unknown one."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in (*required, *obj):
        if key not in obj:
            raise InvalidInputError(f"missing field '{key}' in {what}")
        if key not in required + optional:
            raise InvalidInputError(f"unknown field '{key}' in {what}")
    return obj


def instance_from_json(obj: dict) -> Instance:
    """Parse and validate the instance schema, naming the first bad field."""
    obj = _fields(obj, "instance", ("m", "n", "phi", "mu", "q"))
    m, n = _as_int(obj["m"], "field 'm'", 1), obj["n"]
    if not isinstance(n, list) or len(n) != m:
        raise InvalidInputError(f"field 'n' must be a list of {m} integers")
    for i, ni in enumerate(n):
        _as_int(ni, f"field 'n[{i}]'", 1)
    phi, mu, q = (_as_real(obj[k], f"field '{k}'") for k in ("phi", "mu", "q"))
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
    flow = _fields(obj, "profile", ("flow",))["flow"]
    if not isinstance(flow, list) or not flow:
        raise InvalidInputError("field 'flow' must be a non-empty list of rows")
    for i, row in enumerate(flow):
        if not isinstance(row, list):
            raise InvalidInputError(f"field 'flow[{i}]' must be a list")
        for j, c in enumerate(row):
            _as_int(c, f"field 'flow[{i}][{j}]'", 0)
    return RoutingProfile(tuple(tuple(row) for row in flow))


def profile_to_json(prof: RoutingProfile) -> dict:
    return {"flow": [list(row) for row in prof.flow]}
