"""Command-line front end.

Subcommands: solve-opt, check-ne, enumerate-ne, poa, dynamics, two-source
(--instance, then scan, classify, existence or corollaries), simulate, sweep,
each taking only the options it reads.  Instances, profiles and sweep specs
are JSON files in the interchange schemas; answers print as JSON (CSV where noted).

Exit codes: 0 success, 2 invalid input, 3 enumeration capacity exceeded,
4 failed internal cross-check (always a bug, never swallowed).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import model, optimizer, equilibrium, two_source, packet_sim, sweeps
from .errors import CapacityError, InternalCheckError, InvalidInputError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

_TR_MATCH_TOL = 1e-9


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # decode errors, over-long ints, deep nesting
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None


@contextmanager
def _writing(path: str):
    """Report a failed write of `path` as invalid input naming the path."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str | None) -> None:
    """Reject, before any work, an output path whose directory does not exist
    or that is an existing directory.  None means no file; "" is invalid, as it
    names the current directory."""
    if path is not None and not Path(path).parent.is_dir():
        raise InvalidInputError(f"cannot write {path}: its directory does not exist")
    if path is not None and Path(path).is_dir():
        raise InvalidInputError(f"cannot write {path}: it is a directory")


def _load_instance(path: str) -> model.Instance:
    return model.instance_from_json(_load_json(path))


def _load_profile(path: str, inst: model.Instance) -> model.RoutingProfile:
    prof = model.profile_from_json(_load_json(path))
    prof.validate_for(inst)
    return prof


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _solution_json(sol: optimizer.OptimalSolution) -> dict:
    return {
        "u": list(sol.u),
        "v": list(sol.v),
        "flow": [list(r) for r in sol.profile.flow],
        "tr": sol.tr,
        "threshold": sol.threshold,
        "b": sol.b,
    }


def _cmd_solve_opt(args) -> int:
    model.check_cap(args.oracle)  # before any work
    inst = _load_instance(args.instance)
    sol = optimizer.solve_optimal(inst)
    out = _solution_json(sol)
    if args.oracle is not None:
        try:
            ref = optimizer.brute_force_optimal(inst, cap=args.oracle)
        except CapacityError:
            out["oracle_tr"] = None  # profile space above CAP
        else:
            out["oracle_tr"] = ref.tr
            if abs(ref.tr - sol.tr) > _TR_MATCH_TOL * max(1.0, abs(ref.tr)):
                raise InternalCheckError(
                    f"solver tr={sol.tr!r} disagrees with exhaustive oracle tr={ref.tr!r}"
                )
    _emit(out)
    return EXIT_OK


def _cmd_check_ne(args) -> int:
    inst = _load_instance(args.instance)
    prof = _load_profile(args.profile, inst)
    verdict = equilibrium.is_nash_characterization(inst, prof)
    out = {"characterization": asdict(verdict)}
    if args.oracle:
        ref = equilibrium.is_nash_deviation_oracle(inst, prof)
        out["oracle"] = asdict(ref)
        if ref.is_ne != verdict.is_ne:
            raise InternalCheckError(
                f"characterization says is_ne={verdict.is_ne} "
                f"but the deviation oracle says {ref.is_ne}"
            )
    _emit(out)
    return EXIT_OK


def _cmd_enumerate_ne(args) -> int:
    _check_writable(args.out)
    inst = _load_instance(args.instance)
    nes = equilibrium.enumerate_nash(inst, cap=args.cap)
    lines = ["flow,u,v,tr"]
    for prof, summary in nes:
        flat = " ".join(str(x) for row in prof.flow for x in row)
        u = " ".join(str(x) for x in prof.u())
        v = " ".join(str(x) for x in prof.v())
        lines.append(f"{flat},{u},{v},{summary.total_traffic!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {len(nes)} equilibria to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_poa(args) -> int:
    inst = _load_instance(args.instance)
    _emit(asdict(equilibrium.poa_report(inst, cap=args.cap)))
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    inst = _load_instance(args.instance)
    start = _load_profile(args.start, inst)
    res = equilibrium.best_response_dynamics(
        inst, start, max_rounds=args.max_rounds, seed=args.seed
    )
    if res.outcome == "converged":
        if not equilibrium.is_nash_deviation_oracle(inst, res.profile).is_ne:
            raise InternalCheckError("dynamics converged to a non-equilibrium profile")
    _emit(
        {
            "flow": [list(r) for r in res.profile.flow],
            "rounds": res.rounds,
            "outcome": res.outcome,
        }
    )
    return EXIT_OK


def _cmd_two_source(args) -> int:
    inst = _load_instance(args.instance)
    if args.action == "scan":
        states = two_source.scan_nash(inst)
        _emit(
            {
                "ne_states": [{"u1": s.u1, "u2": s.u2} for s in states],
                "count": len(states),
            }
        )
    elif args.action == "classify":
        verdict = two_source.classify(inst, two_source.TwoSourceState(args.u1, args.u2))
        _emit(
            {
                "case": verdict.case_id,
                "is_ne": verdict.is_ne,
                "t1_at_u2": verdict.t1_at_u2,
                "t2_at_u1": verdict.t2_at_u1,
            }
        )
    elif args.action == "existence":
        s = two_source.construct_existence_ne(inst)
        _emit({"u1": s.u1, "u2": s.u2})
    else:
        _emit(two_source.check_corollaries(inst))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    inst = _load_instance(args.instance)
    prof = _load_profile(args.profile, inst)
    cfg = packet_sim.SimConfig(inst, prof, horizon=args.horizon, seed=args.seed)
    if args.validate is not None:
        model._as_real(args.validate, "tolerance_sigmas", 0)  # before any simulation runs
    outcome = packet_sim.simulate(cfg)
    out = packet_sim.outcome_to_json(outcome)
    if args.validate is not None:
        report = packet_sim.assess_outcome(
            inst, prof, outcome, model.traffic_rates(inst, prof), args.validate
        )
        out["validation"] = {"passed": report.passed, **asdict(report)}
    _emit(out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _check_writable(args.out)
    spec = sweeps.spec_from_json(_load_json(args.spec))
    rows = sweeps.run_sweep(spec, cap=args.cap)
    with _writing(args.out):
        sweeps.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossnet",
        description="Load balancing in bufferless loss networks: optimum, equilibria, "
        "price of anarchy, and packet-level validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-opt", help="maximize total delivered traffic")
    p.add_argument("--instance", required=True)
    p.add_argument("--oracle", nargs="?", type=int, const=optimizer.BRUTE_FORCE_CAP,
                   metavar="CAP", help="cross-check against brute force over at most CAP profiles")
    p.set_defaults(func=_cmd_solve_opt)

    p = sub.add_parser("check-ne", help="equilibrium verdict for one profile")
    p.add_argument("--instance", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--oracle", action="store_true", help="also run the deviation oracle")
    p.set_defaults(func=_cmd_check_ne)

    p = sub.add_parser("enumerate-ne", help="list every equilibrium profile")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=equilibrium.ENUMERATION_CAP)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_enumerate_ne)

    p = sub.add_parser("poa", help="price-of-anarchy report")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=equilibrium.ENUMERATION_CAP)
    p.set_defaults(func=_cmd_poa)

    p = sub.add_parser("dynamics", help="best-response dynamics from a start profile")
    p.add_argument("--instance", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=1000)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("two-source", help="closed-form two-source analysis")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_two_source)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("scan", "classify", "existence", "corollaries"):
        actions.add_parser(action)
    p = actions.choices["classify"]
    p.add_argument("--u1", type=int, required=True)
    p.add_argument("--u2", type=int, required=True)

    p = sub.add_parser("simulate", help="packet-level Monte Carlo run")
    p.add_argument("--instance", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--validate", nargs="?", type=float, const=packet_sim.TOLERANCE_SIGMAS,
                   metavar="SIGMAS",
                   help="compare loss rates with the model within SIGMAS standard errors")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, default=equilibrium.ENUMERATION_CAP)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
