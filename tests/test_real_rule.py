"""Every real input goes through one rule: a real number, not a bool, in its
interval, stored as a Python float.

Each row names one input, a call that feeds it a value, the name that a
type fault must carry, the name that a range fault must carry, and the
values just outside its interval.  Every row is fed True, "1", None, an int
beyond the float range and NaN, which must raise InvalidInputError whose
message starts with the first name, and each out-of-range value, which must
raise one that starts with the second.  The JSON fields and the sweep grid
are named as the JSON names them; their intervals are the instance's, so a
range fault there names the instance's parameter.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import lossnet as ln
from lossnet.errors import InvalidInputError
from lossnet.packet_sim import SimConfig, assess_outcome
from lossnet.sweeps import SweepSpec, apply_axis, run_sweep

TWO = ln.Instance((5, 3), 1.0, 1.0, 0.5)
ALL_DIRECT = ln.RoutingProfile.all_direct(TWO)
SHORT = SimConfig(TWO, ALL_DIRECT, 1.0, 0)
OUTCOME = ln.simulate(SHORT)
RATES = ln.traffic_rates(TWO, ALL_DIRECT)
JSON_TWO = {"m": 2, "n": [5, 3], "phi": 1, "mu": 1, "q": 0.5}

BIG = 10**400
BELOW_0 = math.nextafter(0.0, -1.0)
ABOVE_1 = math.nextafter(1.0, 2.0)
POSITIVE_OUTSIDE = [0.0, -0.0, math.inf]

# (input, call, type-fault name, range-fault name, out-of-range values)
ROWS = [
    ("phi", lambda x: ln.Instance((5, 3), x, 1.0, 0.5), "phi", "phi", POSITIVE_OUTSIDE),
    ("mu", lambda x: ln.Instance((5, 3), 1.0, x, 0.5), "mu", "mu", POSITIVE_OUTSIDE),
    ("q", lambda x: ln.Instance((5, 3), 1.0, 1.0, x), "q", "q", [BELOW_0, ABOVE_1]),
    ("horizon", lambda x: SimConfig(TWO, ALL_DIRECT, x, 0), "horizon", "horizon",
     POSITIVE_OUTSIDE),
    ("assess_outcome sigmas", lambda x: assess_outcome(TWO, ALL_DIRECT, OUTCOME, RATES, x),
     "tolerance_sigmas", "tolerance_sigmas", [BELOW_0, -math.inf]),
    ("validate_analytics sigmas", lambda x: ln.validate_analytics(SHORT, x),
     "tolerance_sigmas", "tolerance_sigmas", [BELOW_0, -math.inf]),
    ("json phi", lambda x: ln.instance_from_json({**JSON_TWO, "phi": x}), "field 'phi'", "phi",
     POSITIVE_OUTSIDE),
    ("json mu", lambda x: ln.instance_from_json({**JSON_TWO, "mu": x}), "field 'mu'", "mu",
     POSITIVE_OUTSIDE),
    ("json q", lambda x: ln.instance_from_json({**JSON_TWO, "q": x}), "field 'q'", "q",
     [BELOW_0, ABOVE_1]),
    ("q grid value", lambda x: apply_axis(TWO, "q", x), "field 'grid'", "q", [BELOW_0, ABOVE_1]),
    ("mu grid value", lambda x: apply_axis(TWO, "mu", x), "field 'grid'", "mu", POSITIVE_OUTSIDE),
    ("q grid of a spec", lambda x: SweepSpec(base=TWO, axis="q", grid=(x,)), "field 'grid'", "q",
     [BELOW_0, ABOVE_1]),
]

CASES = [
    pytest.param(call, name, value, id=f"{row}={'10**400' if value is BIG else repr(value)}")
    for row, call, type_name, range_name, outside in ROWS
    for name, values in ((type_name, [True, "1", None, BIG, math.nan]), (range_name, outside))
    for value in values
]


@pytest.mark.parametrize("call, field, value", CASES)
def test_every_real_input_is_checked_by_one_rule(call, field, value):
    with pytest.raises(InvalidInputError, match="^" + re.escape(field) + " "):
        call(value)


def test_the_rule_words_each_fault_once():
    for x, message in ((True, "phi must be a real number, got True"),
                       ("1", "phi must be a real number, got '1'"),
                       (BIG, "phi is too large for a float"),
                       (0, "phi must lie in (0, inf), got 0.0")):
        with pytest.raises(InvalidInputError, match="^" + re.escape(message) + "$"):
            ln.Instance((5, 3), x, 1.0, 0.5)
    with pytest.raises(InvalidInputError, match=r"^q must lie in \[0, 1\], got nan$"):
        ln.Instance((5, 3), 1.0, 1.0, math.nan)
    with pytest.raises(InvalidInputError,
                       match=r"^tolerance_sigmas must lie in \[0, inf\], got -1.0$"):
        ln.validate_analytics(SHORT, -1)


def test_the_rule_admits_the_ends_of_each_interval():
    assert ln.Instance((5, 3), 1.0, 1.0, 0).q == 0.0
    assert ln.Instance((5, 3), 1.0, 1.0, 1).q == 1.0
    assert ln.Instance((1,), 5e-324, 1.0, 0.0).phi == 5e-324
    assert assess_outcome(TWO, ALL_DIRECT, OUTCOME, RATES, 0).checks
    assert assess_outcome(TWO, ALL_DIRECT, OUTCOME, RATES, math.inf).passed


@pytest.mark.parametrize("x", [2, np.int64(2), np.float32(2.0), np.float64(2.0),
                               Fraction(2), 2.0], ids=repr)
def test_reals_are_stored_as_python_floats(x):
    q = x / 4
    for inst in (ln.Instance((5, 3), x, x, q),
                 ln.instance_from_json({**JSON_TWO, "phi": x, "mu": x, "q": q}),
                 apply_axis(apply_axis(TWO, "mu", x), "q", q)):
        assert type(inst.phi) is type(inst.mu) is type(inst.q) is float
        assert (inst.mu, inst.q) == (2.0, 0.5)
    assert type(SimConfig(TWO, ALL_DIRECT, x, 0).horizon) is float


def test_a_float32_phi_is_analysed_in_float64():
    phi32 = np.float32(1.1)
    narrow = ln.Instance((3, 2), phi32, 1.0, 0.3)
    wide = ln.Instance((3, 2), float(phi32), 1.0, 0.3)
    tr = ln.solve_optimal(narrow).tr
    assert type(tr) is float and tr == ln.solve_optimal(wide).tr
    report, expected = ln.poa_report(narrow), ln.poa_report(wide)
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name != "ne_count" and value is not None:
            assert type(value) is float, f.name
    assert report == expected
    spec = SweepSpec(base=narrow, axis="q", grid=(0.3,), outputs=("tr_opt",))
    row = run_sweep(spec)[0]
    assert type(row["tr_opt"]) is float and row["tr_opt"] == tr
