"""Every integer input goes through one rule: an int, not a bool, in its range.

Each row names one input, a call that feeds it a value, the field name the
error must carry, and the values just outside its range.  Every row is fed
True, 2.5 and each out-of-range value, and must raise InvalidInputError
naming the field.
"""

import re

import pytest

import lossnet as ln
from lossnet.errors import InvalidInputError
from lossnet.model import check_cap
from lossnet.packet_sim import SimConfig
from lossnet.sweeps import SweepSpec, apply_axis, run_sweep
from lossnet.two_source import TwoSourceState

TWO = ln.Instance((5, 3), 1.0, 1.0, 0.5)
THREE = ln.Instance((2, 2, 1), 1.0, 1.0, 0.5)
ALL_DIRECT = ln.RoutingProfile.all_direct(TWO)
START = ln.RoutingProfile(((0, 1, 1), (1, 0, 1), (1, 0, 0)))
SPEC = SweepSpec(base=TWO, axis="q", grid=(0.5,))
JSON_TWO = {"m": 2, "n": [5, 3], "phi": 1, "mu": 1, "q": 0.5}

# (input, call, field, out-of-range values)
ROWS = [
    ("user_counts", lambda x: ln.Instance((5, x), 1.0, 1.0, 0.5), "user_counts[1]", [0]),
    ("flow entry", lambda x: ln.RoutingProfile(((x, 1), (0, 3))), "flow[0][0]", [-1]),
    ("check_cap", check_cap, "enumeration cap", [-5]),
    ("poa_report cap", lambda x: ln.poa_report(TWO, cap=x), "enumeration cap", [-5]),
    ("enumerate_nash cap", lambda x: ln.enumerate_nash(THREE, cap=x), "enumeration cap", [-5]),
    ("brute_force_optimal cap", lambda x: ln.brute_force_optimal(THREE, cap=x),
     "enumeration cap", [-5]),
    ("run_sweep cap", lambda x: run_sweep(SPEC, cap=x), "enumeration cap", [-5]),
    ("max_rounds", lambda x: ln.best_response_dynamics(THREE, START, max_rounds=x),
     "max_rounds", [0]),
    ("dynamics seed", lambda x: ln.best_response_dynamics(THREE, START, seed=x), "seed", [-1]),
    ("SimConfig seed", lambda x: SimConfig(TWO, ALL_DIRECT, 1.0, x), "seed", [-1]),
    ("json m", lambda x: ln.instance_from_json({**JSON_TWO, "m": x}), "field 'm'", [0]),
    ("json n", lambda x: ln.instance_from_json({**JSON_TWO, "n": [5, x]}), "field 'n[1]'", [0]),
    ("json flow", lambda x: ln.profile_from_json({"flow": [[5, x], [0, 3]]}),
     "field 'flow[0][1]'", [-1]),
    ("n1 grid value", lambda x: apply_axis(TWO, "n1", x), "n1 grid value", [0]),
    ("n1 grid of a spec", lambda x: SweepSpec(base=TWO, axis="n1", grid=(x,)),
     "n1 grid value", [0]),
    ("threads", lambda x: run_sweep(SPEC, threads=x), "threads", [0, -3, 2]),
    ("classify u1", lambda x: ln.classify(TWO, TwoSourceState(x, 1)), "u1", [-1, 6]),
    ("classify u2", lambda x: ln.classify(TWO, TwoSourceState(1, x)), "u2", [-1, 4]),
    ("expand u1", lambda x: TwoSourceState(x, 1).expand(TWO), "u1", [-1, 6]),
    ("expand u2", lambda x: TwoSourceState(1, x).expand(TWO), "u2", [-1, 4]),
]

CASES = [
    pytest.param(call, field, value, id=f"{name}={value!r}")
    for name, call, field, outside in ROWS
    for value in [True, 2.5, *outside]
]


@pytest.mark.parametrize("call, field, value", CASES)
def test_every_integer_input_is_checked_by_one_rule(call, field, value):
    with pytest.raises(InvalidInputError, match=re.escape(field)):
        call(value)


def test_the_rule_words_each_fault_once():
    with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got True$"):
        ln.best_response_dynamics(THREE, START, seed=True)
    for call in (lambda: ln.best_response_dynamics(THREE, START, seed=-1),
                 lambda: SimConfig(TWO, ALL_DIRECT, 1.0, -1)):
        with pytest.raises(InvalidInputError, match=r"^seed must be non-negative, got -1$"):
            call()
    with pytest.raises(InvalidInputError, match=r"^max_rounds must be at least 1, got 0$"):
        ln.best_response_dynamics(THREE, START, max_rounds=0)
    with pytest.raises(InvalidInputError, match=r"^u1 must be at most 5, got 6$"):
        ln.classify(TWO, TwoSourceState(6, 1))


def test_the_rule_admits_the_ends_of_each_range():
    assert check_cap(None) is None and check_cap(0) is None
    assert ln.classify(TWO, TwoSourceState(5, 3)).case_id == "4"
    assert ln.classify(TWO, TwoSourceState(0, 0)).case_id == "2"
    assert len(run_sweep(SPEC, threads=1)) == 1
