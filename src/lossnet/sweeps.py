"""Parameter sweeps over q, mu, or the largest user count, with CSV output.

Every grid point yields one row with the optimal traffic, the worst
equilibrium traffic, the exact price of anarchy, the closed-form bound, and
the equilibrium count.  Two-source instances use the fast aggregate scan;
for three or more sources the equilibrium columns are filled only when the
profile space fits under the enumeration cap, otherwise they carry the "na"
marker.  Output is deterministic: identical specs produce byte-identical
files.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from .errors import CapacityError, InvalidInputError
from .model import Instance, _as_int, _as_real, _fields, check_cap, instance_from_json
from .equilibrium import poa_bound, poa_report
from .optimizer import check_gain_test, solve_optimal
from .two_source import check_scan_size

AXES = ("q", "mu", "n1")
OUTPUTS = ("tr_opt", "tr_worst_ne", "poa_exact", "poa_bound")
CSV_COLUMNS = ("axis_value", "tr_opt", "tr_worst_ne", "poa_exact", "poa_bound", "ne_count")
NA = "na"


@dataclass(frozen=True)
class SweepSpec:
    base: Instance
    axis: str
    grid: tuple
    outputs: tuple[str, ...] = OUTPUTS

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise InvalidInputError(f"axis must be one of {AXES}, got {self.axis!r}")
        object.__setattr__(self, "grid", tuple(self.grid))
        for name in ("grid", "outputs"):  # a sweep must ask for something
            if not getattr(self, name):
                raise InvalidInputError(f"{name} must be non-empty")
        seen = []
        for o in self.outputs:
            if o not in OUTPUTS:
                raise InvalidInputError(f"unknown output {o!r}; choose from {OUTPUTS}")
            if o not in seen:
                seen.append(o)
        object.__setattr__(self, "outputs", tuple(seen))
        # Every row's guards run here, before the first row is solved.
        ne = {"tr_worst_ne", "poa_exact"} & set(seen)
        for g in self.grid:
            inst = apply_axis(self.base, self.axis, g)  # validates the value's domain
            if ne or "tr_opt" in seen:
                check_gain_test(inst)
            if ne:
                check_scan_size(inst)


def apply_axis(base: Instance, axis: str, value) -> Instance:
    """The base instance with one parameter replaced by a grid value."""
    if axis == "q":
        return Instance(base.user_counts, base.phi, base.mu, _as_real(value, "field 'grid'"))
    if axis == "mu":
        return Instance(base.user_counts, base.phi, _as_real(value, "field 'grid'"), base.q)
    n1 = _as_int(value, "n1 grid value", 1)
    return Instance((n1,) + base.user_counts[1:], base.phi, base.mu, base.q)


def spec_from_json(obj: dict) -> SweepSpec:
    obj = _fields(obj, "sweep spec", ("base", "axis", "grid"), ("outputs",))
    base = instance_from_json(obj["base"])
    if not isinstance(obj["grid"], list):
        raise InvalidInputError("field 'grid' must be a list")
    outputs = obj.get("outputs", list(OUTPUTS))
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise InvalidInputError("field 'outputs' must be a list of strings")
    return SweepSpec(base=base, axis=obj["axis"], grid=tuple(obj["grid"]), outputs=tuple(outputs))


def _row(spec: SweepSpec, value, cap: int) -> dict:
    inst = apply_axis(spec.base, spec.axis, value)
    row: dict[str, object] = {c: NA for c in CSV_COLUMNS}
    row["axis_value"] = value
    rep = None
    if {"tr_worst_ne", "poa_exact"} & set(spec.outputs):
        try:
            rep = poa_report(inst, cap=cap)
        except CapacityError:
            pass  # equilibrium columns stay "na"
    if rep is not None:
        row["ne_count"] = rep.ne_count
        values = {out: getattr(rep, out) for out in spec.outputs}
    else:
        values = {"poa_bound": poa_bound(inst)}
        if "tr_opt" in spec.outputs:
            values["tr_opt"] = solve_optimal(inst).tr
    for out in spec.outputs:
        if values.get(out) is not None:
            row[out] = values[out]
    return row


def run_sweep(spec: SweepSpec, cap: int = 1_000_000, threads: int = 1) -> list[dict]:
    """One row per grid point, in grid order, in the calling thread; `threads` must be 1."""
    check_cap(cap)
    _as_int(threads, "threads", 1, 1)
    return [_row(spec, g, cap) for g in spec.grid]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        raise InvalidInputError("booleans are not CSV values")
    if isinstance(x, int):
        return str(x)
    return repr(float(x))  # shortest round-trip decimal


def rows_to_csv(rows: list[dict]) -> str:
    """Comma-separated, '.' decimal, header row, LF line endings."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def write_csv(rows: list[dict], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


def figure_presets() -> dict[str, SweepSpec]:
    """Built-in sweep presets for the bundled experiments.

    q_sweep:        q in [0, 1] (101 points), counts (1000, 100), mu = 300.
    mu_sweep:       mu log-spaced over [1, 6000] (60 points), q = 0.3.
    n1_sweep:       n1 in 500..8000 step 100, q = 0.7, mu = 10.  The endpoint
                    price of anarchy sits within 0.005 of 1 at this mu.
    n1_sweep_m3:    three sources, counts (n1, 8, 4), mu = 1, q = 0.3,
                    n1 in 12..60 step 4; optimum-only outputs.
    """
    two = Instance((1000, 100), 1.0, 300.0, 0.3)
    q_grid = tuple(round(i / 100, 2) for i in range(101))
    mu_grid = tuple(float(f"{10 ** (i / 59 * 3.778151):.6g}") for i in range(60))
    n1_grid = tuple(range(500, 8001, 100))
    n1_m3_grid = tuple(range(12, 61, 4))
    return {
        "q_sweep": SweepSpec(base=two, axis="q", grid=q_grid),
        "mu_sweep": SweepSpec(
            base=Instance((1000, 100), 1.0, 300.0, 0.3), axis="mu", grid=mu_grid
        ),
        "n1_sweep": SweepSpec(
            base=Instance((1000, 100), 1.0, 10.0, 0.7), axis="n1", grid=n1_grid
        ),
        "n1_sweep_m3": SweepSpec(
            base=Instance((12, 8, 4), 1.0, 1.0, 0.3),
            axis="n1",
            grid=n1_m3_grid,
            outputs=("tr_opt", "poa_bound"),
        ),
    }
