"""The benchmark workloads: seeded inputs, the calls made, and answer checks.

Every workload is a closed loop: one caller makes the next call once the
previous one returns.  Inputs are generated here from the seed; the library
only ever sees the resulting `Instance`, `RoutingProfile`, `SweepSpec` and
`SimConfig` values.  A workload is a cyclic list of groups; a group is the
calls that belong together (one sweep row, or one m = 3 instance with its
oracle, verdicts and dynamics), and the timed loop stops only between groups.

All library functions are looked up on the `lossnet` package at call time,
so the traced run sees every call through its rebound wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import lossnet as ln
from lossnet.packet_sim import assess_outcome
from lossnet.sweeps import apply_axis

#: Relative tolerance for comparing float answers with a reference.
REL_TOL = 1e-9
#: Seed whose analytic answers are compared with reference.json.
DEFAULT_SEED = 0
#: Largest profile space of three or more sources checked by brute force.
BRUTE_CAP = 250_000
#: The float deviation oracle is not trusted as a reference at this many users.
ORACLE_MAX_USERS = 10_000
#: Simulator validation margin.  Blocking indicators of a bufferless
#: exponential link fed by Poisson arrivals are i.i.d., so the binomial
#: standard error is exact; a run makes several hundred such checks, and at
#: 6 sigma the chance that any of them fails by chance is below 1e-6.
SIM_SIGMAS = 6.0


@dataclass(frozen=True)
class Op:
    """One call of the closed loop.

    kind selects the library call; key names the distinct input, so repeated
    calls share one reference; user marks the user-level calls whose latency
    is reported; work is the call's contribution to the throughput count
    (None: taken from the answer).
    """

    kind: str
    key: str
    args: tuple
    user: bool
    work: int | None = 0

    @property
    def ref_key(self) -> str:
        return f"{self.kind}:{self.key}"


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str  # what work_per_ref_s counts, e.g. "rows"
    groups: list[list[Op]]
    expected: frozenset[str]  # traced boundaries every full round must cross


def _tag(inst: ln.Instance) -> str:
    return f"{inst.user_counts}|phi={inst.phi!r}|mu={inst.mu!r}|q={inst.q!r}"


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def _random_profile(rng: random.Random, inst: ln.Instance) -> ln.RoutingProfile:
    rows = []
    for n in inst.user_counts:
        row = [0] * inst.m
        for _ in range(n):
            row[rng.randrange(inst.m)] += 1
        rows.append(tuple(row))
    return ln.RoutingProfile(tuple(rows))


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _figures(rng: random.Random) -> list[list[Op]]:
    """The four figure presets with a seed-shifted base, one op per row."""
    ops = []
    for name, spec in ln.figure_presets().items():
        counts = list(spec.base.user_counts)
        counts[1:] = [c + rng.randint(-max(1, c // 50), max(1, c // 50)) for c in counts[1:]]
        if spec.axis != "n1":
            counts[0] += rng.randint(-counts[0] // 50, counts[0] // 50)
        q = spec.base.q if spec.axis == "q" else round(spec.base.q + rng.uniform(-0.02, 0.02), 4)
        mu = spec.base.mu if spec.axis == "mu" else _jitter(rng, spec.base.mu, 0.03)
        base = ln.Instance(tuple(counts), spec.base.phi, mu, q)
        for g in spec.grid:
            one = ln.SweepSpec(base=base, axis=spec.axis, grid=(g,), outputs=spec.outputs)
            ops.append(Op("row", f"{name}|{_tag(base)}|{g!r}", (one,), True, 1))
    rng.shuffle(ops)
    return [[op] for op in ops]


# Three-source shapes with 11.3k to 12.6k profiles each: one poa_report takes
# about 0.7 s, every seed runs all six, and each runs about three times in a
# run, so the median call is the same work on every seed.
ENUM_SHAPES = ((6, 5, 5), (8, 6, 3), (6, 6, 4), (9, 5, 3), (11, 4, 3), (7, 5, 4))
ENUM_SAMPLES = 40
ENUM_STARTS = 2


def _enumeration(rng: random.Random) -> list[list[Op]]:
    shapes = list(ENUM_SHAPES)
    rng.shuffle(shapes)
    zero_q = set(rng.sample(range(len(shapes)), 2))  # q = 0 makes NE sets large
    groups = []
    for k, counts in enumerate(shapes):
        q = 0.0 if k in zero_q else rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
        inst = ln.Instance(counts, 1.0, rng.choice((0.5, 1.0, 2.0, 3.0)), q)
        tag = _tag(inst)
        group = [
            Op("poa", tag, (inst,), True, ln.count_profiles(inst)),
            Op("brute", tag, (inst,), False),
        ]
        samples = [ln.RoutingProfile.all_direct(inst)]
        samples += [_random_profile(rng, inst) for _ in range(ENUM_SAMPLES - 1)]
        for prof in samples:
            group.append(Op("verdicts", f"{tag}|{prof.flow}", (inst, prof), False))
        for _ in range(ENUM_STARTS):
            start, seed = _random_profile(rng, inst), rng.randrange(2**31)
            group.append(Op("dynamics", f"{tag}|{start.flow}|{seed}", (inst, start, seed), False))
        groups.append(group)
    return groups


# Blocked packets cost less to simulate, so the heavy run gets more of them:
# every simulate call then takes about as long, and the median call is the
# middle of one mode rather than the edge between two.
SIM_TARGET_PACKETS = {False: 400_000, True: 580_000}
# Each profile mixes direct classes with two relayed users; light load runs
# the first, heavy load the second.
SIM_PROFILES = {False: ((2, 1, 0), (0, 1, 1), (0, 0, 2)),
                True: ((2, 0, 1), (1, 1, 0), (0, 0, 2))}


def _sim_config(rng: random.Random, heavy: bool) -> ln.SimConfig:
    """A seeded relabelling of a fixed profile, so the work per packet is
    the same on every seed.

    The seed picks the source labels, q and the simulator seed.  Light load:
    the busiest link blocks about 20% of what it is offered; heavy load:
    about 80%.
    """
    base = SIM_PROFILES[heavy]
    m = len(base)
    perm = rng.sample(range(m), m)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            rows[perm[i]][perm[j]] = base[i][j]
    prof = ln.RoutingProfile(tuple(tuple(r) for r in rows))
    counts = tuple(sum(r) for r in rows)
    q = round(rng.uniform(0.28, 0.32), 4)
    load = max(ln.traffic_rates(ln.Instance(counts, 1.0, 1.0, q), prof))
    inst = ln.Instance(counts, 1.0, round(load / 4.0 if heavy else load * 4.0, 6), q)
    horizon = float(round(SIM_TARGET_PACKETS[heavy] / (inst.n * inst.phi)))
    return ln.SimConfig(inst, prof, horizon, rng.randrange(2**31))


def _packet_sim(rng: random.Random) -> list[list[Op]]:
    groups = []
    for heavy in (False, False, True):
        cfg = _sim_config(rng, heavy)
        key = f"{_tag(cfg.instance)}|{cfg.profile.flow}|{cfg.horizon!r}|{cfg.seed}"
        groups.append([Op("simulate", key, (cfg,), True, None)])
    rng.shuffle(groups)
    return groups


_WORKLOADS = {
    "figures": ("rows", _figures, {
        "sweeps.run_sweep", "equilibrium.poa_report", "optimizer.solve_optimal",
        "two_source.scan_nash", "model.total_traffic",
    }),
    "enumeration": ("profiles", _enumeration, {
        "equilibrium.poa_report", "equilibrium.enumerate_nash",
        "equilibrium.is_nash_characterization", "equilibrium.is_nash_deviation_oracle",
        "equilibrium.best_response_dynamics", "optimizer.solve_optimal",
        "optimizer.brute_force_optimal", "model.total_traffic", "model.summarize",
    }),
    "packet_sim": ("packets", _packet_sim, {"packet_sim.simulate"}),
}

NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int) -> Workload:
    unit, make_groups, expected = _WORKLOADS[name]
    return Workload(name, unit, make_groups(random.Random(seed)), frozenset(expected))


def warm_up(name: str) -> None:
    """One small untimed call along the workload's code path."""
    if name == "figures":
        base = ln.Instance((20, 10), 1.0, 5.0, 0.3)
        ln.run_sweep(ln.SweepSpec(base=base, axis="q", grid=(0.3,)), threads=1)
        ln.run_sweep(ln.SweepSpec(base=ln.Instance((6, 4, 2), 1.0, 1.0, 0.3), axis="n1",
                                  grid=(6,), outputs=("tr_opt", "poa_bound")), threads=1)
    elif name == "enumeration":
        inst = ln.Instance((3, 2, 2), 1.0, 1.0, 0.3)
        ln.poa_report(inst)
        ln.brute_force_optimal(inst)
        prof = ln.RoutingProfile.all_direct(inst)
        ln.is_nash_characterization(inst, prof)
        ln.is_nash_deviation_oracle(inst, prof)
        ln.best_response_dynamics(inst, prof, seed=0)
    else:
        inst = ln.Instance((2, 2), 1.0, 1.0, 0.3)
        ln.simulate(ln.SimConfig(inst, ln.RoutingProfile(((1, 1), (0, 2))), 100.0, 0))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(op: Op) -> Any:
    if op.kind == "row":
        (spec,) = op.args
        return ln.run_sweep(spec, threads=1)[0]
    if op.kind == "poa":
        return ln.poa_report(*op.args)
    if op.kind == "brute":
        return ln.brute_force_optimal(*op.args)
    if op.kind == "verdicts":
        inst, prof = op.args
        return (ln.is_nash_characterization(inst, prof).is_ne,
                ln.is_nash_deviation_oracle(inst, prof).is_ne)
    if op.kind == "dynamics":
        inst, start, seed = op.args
        return ln.best_response_dynamics(inst, start, max_rounds=1000, seed=seed)
    if op.kind == "simulate":
        return ln.simulate(*op.args)
    raise ValueError(f"unknown op kind {op.kind!r}")


def work_done(op: Op, answer: Any) -> int:
    if op.work is None:  # simulate: packets generated after the warm-up cut
        return sum(c.generated for c in answer.per_class.values())
    return op.work


# ---------------------------------------------------------------------------
# Analytic summaries: what reference.json records and compares
# ---------------------------------------------------------------------------

_POA_FIELDS = ("tr_opt", "tr_worst_ne", "poa_exact", "poa_bound", "ne_count")


def summary(op: Op, answer: Any) -> dict | None:
    """The analytic content of an answer, or None where nothing is frozen."""
    if op.kind == "row":
        return {f: answer[f] for f in _POA_FIELDS}
    if op.kind == "poa":
        return {f: getattr(answer, f) for f in _POA_FIELDS}
    if op.kind == "brute":
        return {"tr": answer.tr, "threshold": answer.threshold, "b": answer.b,
                "u": list(answer.u), "v": list(answer.v)}
    if op.kind == "verdicts":
        return {"characterization": answer[0], "oracle": answer[1]}
    if op.kind == "dynamics":
        return {"flow": [list(r) for r in answer.profile.flow], "rounds": answer.rounds,
                "outcome": answer.outcome}
    return None  # the simulator stream is not frozen


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _differs(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return not _close(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(_differs(x, y) for x, y in zip(a, b))
    return type(a) is not type(b) or a != b


def compare_reference(got: dict, want: dict) -> str | None:
    for field, value in want.items():
        if _differs(got.get(field), value):
            return f"{field}={got.get(field)!r}, reference {value!r}"
    return None


# ---------------------------------------------------------------------------
# Independent checks, computed once per distinct input and cached
# ---------------------------------------------------------------------------


def _le(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(b))


def _two_source_opt(inst: ln.Instance) -> float:
    """Exact two-source optimum by scanning every one-way relay count.

    The maximizer relays in one direction only, so the best of the two
    one-way families, each a vector over the relayed count, is the optimum.
    Independent of the optimizer's heap-based balancing.
    """
    n1, n2 = inst.user_counts
    phi, mu, qbar = inst.phi, inst.mu, inst.qbar

    def f(t):
        return t * mu / (t + mu)

    b1 = np.arange(n1 + 1)
    b2 = np.arange(n2 + 1)
    one = f((n1 - b1) * phi) + f((n2 + b1 * qbar) * phi)
    two = f((n1 + b2 * qbar) * phi) + f((n2 - b2) * phi)
    return float(max(one.max(), two.max()))


def _two_source_ne(inst: ln.Instance) -> dict:
    """Equilibrium set facts for a two-source instance, with the worst NE
    re-judged by the scalar `classify` (and the deviation oracle below
    ORACLE_MAX_USERS users)."""
    states = ln.scan_nash(inst)
    trs = [ln.total_traffic(inst, s.expand(inst)) for s in states]
    ref = {"states": [[s.u1, s.u2] for s in states], "ne_count": len(states),
           "tr_worst": min(trs) if trs else None, "problem": None}
    if trs:
        worst = states[int(np.argmin(trs))]
        if not ln.classify(inst, worst).is_ne:
            ref["problem"] = f"worst equilibrium {worst} fails classify"
        elif inst.n < ORACLE_MAX_USERS and not ln.is_nash_deviation_oracle(
            inst, worst.expand(inst)
        ).is_ne:
            ref["problem"] = f"worst equilibrium {worst} fails the deviation oracle"
    return ref


class Checker:
    """Checks answers against independent references cached per distinct input.

    The costly references (optima and two-source equilibrium sets) can be
    shared with the other worker processes of the same run through a JSON
    file, which run.py removes before and after the run.
    """

    SHARED = ("opt2", "brute", "ne2")

    def __init__(self, recorded: dict | None, shared: Path | None = None):
        self.recorded = recorded  # reference.json section for the default seed, or None
        self._cache: dict[tuple, Any] = {}
        self._shared_path = shared
        self._shared = json.loads(shared.read_text()) if shared and shared.exists() else {}

    def _ref(self, what: str, inst_or_cfg: Any, fn) -> Any:
        key = (what, inst_or_cfg)
        if key not in self._cache:
            if what in self.SHARED:
                skey = f"{what}|{inst_or_cfg!r}"
                if skey not in self._shared:
                    self._shared[skey] = fn(inst_or_cfg)
                self._cache[key] = self._shared[skey]
            else:
                self._cache[key] = fn(inst_or_cfg)
        return self._cache[key]

    def save_shared(self) -> None:
        if self._shared_path is not None:
            self._shared_path.parent.mkdir(parents=True, exist_ok=True)
            self._shared_path.write_text(json.dumps(self._shared))

    def _opt_ref(self, inst: ln.Instance) -> float | None:
        """Optimal traffic by an independent method, or None if none fits.

        Two sources use the exact scan over one-way relay counts; three or
        more use brute force where the profile space fits under BRUTE_CAP.
        """
        if inst.m == 2:
            return self._ref("opt2", inst, _two_source_opt)
        if ln.count_profiles(inst) <= BRUTE_CAP:
            return self._ref("brute", inst, lambda i: ln.brute_force_optimal(i).tr)
        return None

    def check(self, op: Op, answer: Any) -> str | None:
        """None if the answer is right, else the reason it is not."""
        problem = getattr(self, f"_check_{op.kind}")(op, answer)
        if problem is None and self.recorded is not None:
            want = self.recorded.get(op.ref_key)
            got = summary(op, answer)
            if got is not None:
                if want is None:
                    problem = "no reference recorded for this input"
                else:
                    problem = compare_reference(got, want)
        return problem

    def _check_poa_fields(self, inst: ln.Instance, rep: dict) -> str | None:
        tr_opt, tr_worst = rep["tr_opt"], rep["tr_worst_ne"]
        ref = self._opt_ref(inst)
        if ref is not None and not _close(tr_opt, ref):
            return f"tr_opt {tr_opt!r} != exact optimum {ref!r}"
        upper = ln.opt_traffic_upper_bound(inst)
        if not _le(tr_opt, upper):
            return f"tr_opt {tr_opt!r} above the upper bound {upper!r}"
        if tr_worst is not None:
            if not _le(tr_worst, tr_opt):
                return f"tr_worst_ne {tr_worst!r} above tr_opt {tr_opt!r}"
            if not _close(rep["poa_exact"], tr_opt / tr_worst):
                return f"poa_exact {rep['poa_exact']!r} != tr_opt / tr_worst_ne"
        if inst.m == 2:
            ne = self._ref("ne2", inst, _two_source_ne)
            if ne["problem"]:
                return ne["problem"]
            if rep["ne_count"] != ne["ne_count"]:
                return f"ne_count {rep['ne_count']} != {ne['ne_count']} states"
            if (tr_worst is None) != (ne["tr_worst"] is None) or (
                tr_worst is not None and not _close(tr_worst, ne["tr_worst"])
            ):
                return f"tr_worst_ne {tr_worst!r} != worst state traffic {ne['tr_worst']!r}"
        return None

    def _check_row(self, op: Op, row: dict) -> str | None:
        (spec,) = op.args
        inst = apply_axis(spec.base, spec.axis, spec.grid[0])
        if "tr_worst_ne" in spec.outputs:
            return self._check_poa_fields(inst, row)
        ref = self._opt_ref(inst)
        if ref is not None and not _close(row["tr_opt"], ref):
            return f"tr_opt {row['tr_opt']!r} != exact optimum {ref!r}"
        if not _le(row["tr_opt"], ln.opt_traffic_upper_bound(inst)):
            return f"tr_opt {row['tr_opt']!r} above the upper bound"
        if not _le(ln.total_traffic(inst, ln.RoutingProfile.all_direct(inst)), row["tr_opt"]):
            return "tr_opt below the all-direct traffic"
        return None

    def _check_poa(self, op: Op, rep: ln.PoAReport) -> str | None:
        (inst,) = op.args
        return self._check_poa_fields(inst, {f: getattr(rep, f) for f in _POA_FIELDS})

    def _check_brute(self, op: Op, sol: ln.OptimalSolution) -> str | None:
        (inst,) = op.args
        if ln.check_optimal_structure(sol):
            return f"brute-force optimum breaks the structure rules: {sol}"
        if not _close(sol.tr, ln.total_traffic(inst, sol.profile)):
            return "brute-force tr does not match its profile"
        return None

    def _check_verdicts(self, op: Op, verdicts: tuple[bool, bool]) -> str | None:
        inst, prof = op.args
        if verdicts[0] != verdicts[1]:
            return f"characterization says {verdicts[0]}, deviation oracle {verdicts[1]}"
        if verdicts[0]:
            opt = self._opt_ref(inst)
            if opt is not None and not _le(ln.total_traffic(inst, prof), opt):
                return "equilibrium traffic above the optimum"
        return None

    def _check_dynamics(self, op: Op, res: ln.BestResponseResult) -> str | None:
        inst, _, _ = op.args
        if res.outcome != "converged":
            return None  # only fixed points carry a claim to check
        if not ln.is_nash_characterization(inst, res.profile).is_ne:
            return "converged profile fails the characterization"
        if not ln.is_nash_deviation_oracle(inst, res.profile).is_ne:
            return "converged profile fails the deviation oracle"
        opt = self._opt_ref(inst)
        if opt is not None and not _le(ln.total_traffic(inst, res.profile), opt):
            return "converged profile's traffic above the optimum"
        return None

    def _check_simulate(self, op: Op, out: Any) -> str | None:
        (cfg,) = op.args
        for (i, r), c in out.per_class.items():
            if c.generated != c.sidelink_lost + c.congestion_lost + c.delivered:
                return f"class ({i},{r}) does not conserve packets: {c}"
            if r == i and c.sidelink_lost:
                return f"direct class ({i},{r}) lost packets on a sidelink"
        for j, lc in out.per_link.items():
            fed = [c for (i, r), c in out.per_class.items() if r == j]
            if lc.blocked != sum(c.congestion_lost for c in fed) or lc.offered != sum(
                c.congestion_lost + c.delivered for c in fed
            ):
                return f"link {j} counts disagree with its classes"
        rates = ln.traffic_rates(cfg.instance, cfg.profile)
        report = assess_outcome(cfg.instance, cfg.profile, out, rates, SIM_SIGMAS)
        if not report.passed:
            return f"simulation disagrees with the loss model: {report.failures()[0]}"
        # validate_analytics reruns the same seed: it must reproduce this run.
        again = self._ref("validate", cfg, lambda c: ln.validate_analytics(c, SIM_SIGMAS))
        if again != report:
            return "validate_analytics does not reproduce the timed run"
        return None


def corrupt(op: Op, answer: Any) -> Any:
    """A deliberately wrong answer, for the negative control."""
    if op.kind == "row":
        return {**answer, "tr_opt": answer["tr_opt"] * (1.0 + 1e-6)}
    if op.kind == "poa":
        return dataclasses.replace(answer, tr_opt=answer.tr_opt * (1.0 + 1e-6))
    if op.kind == "verdicts":
        return (not answer[0], answer[1])
    if op.kind == "simulate":
        (i, r), c = next(iter(sorted(answer.per_class.items())))
        per_class = {**answer.per_class, (i, r): dataclasses.replace(c, delivered=c.delivered + 1)}
        return dataclasses.replace(answer, per_class=per_class)
    raise ValueError(f"no corruption defined for {op.kind!r}")


#: The answer the negative control corrupts on each workload.
CORRUPT_KIND = {"figures": "row", "enumeration": "verdicts", "packet_sim": "simulate"}
