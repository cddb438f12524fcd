"""Command-line front end.

Subcommands: mub, design-check, disturbance, info, frontier, twirl-check.
All randomness is seeded (flag --seed, env QF_SEED, default 0; never the
clock), so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 convergence
warning (soft failure unless --allow-nonconverged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import serialize
from .config import ALGEBRAIC
from .disturbance import avg_fidelity_design, avg_fidelity_mc, min_disturbance_uniform
from .errors import InfodistError
from .frontier import depolarize, frontier_curve, twirl_channel, twirl_depolarizing_p
from .galois import design_check, odd_prime_power, wootters_fields_mub
from .information import info_uniform_mc
from .linalg import random_density
from .measurement import POVM, povm_validate, sqrt_instrument


class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


class ConvergenceFailure(Exception):
    pass


def _resolve_seed(args) -> int:
    """--seed, else the QF_SEED environment variable, else 0; never the clock."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"QF_SEED must be an integer, got {env!r}") from exc
    return 0


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_povm(path: str) -> POVM:
    obj = _read_json(path)
    try:
        povm = serialize.povm_from_json(obj)
    except (KeyError, TypeError, ValueError, InfodistError) as exc:
        raise ValidationFailure(f"{path} does not encode a POVM: {exc}") from exc
    diag = povm_validate(povm)
    if not diag.passed:
        raise ValidationFailure(
            f"{path} violates POVM invariants: hermiticity residual "
            f"{diag.max_hermiticity_violation:.3e}, positivity violation "
            f"{diag.max_psd_violation:.3e}, completeness residual "
            f"{diag.completeness_residual:.3e}"
        )
    return povm


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_mub(args) -> int:
    try:
        mub = wootters_fields_mub(args.p, args.n, cap=args.cap)
    except ValueError as exc:  # even or non-prime p, n < 1, dimension over the cap
        raise ValidationFailure(str(exc)) from exc
    _emit(serialize.dumps(serialize.mubset_to_json(mub, p=args.p, n=args.n)), args.out)
    return 0


def cmd_design_check(args) -> int:
    obj = _read_json(args.infile)
    try:
        if isinstance(obj, dict) and "bases" in obj:
            bases = [serialize.matrix_from_json(b) for b in obj["bases"]]
        elif isinstance(obj, list):
            bases = [serialize.matrix_from_json(b) for b in obj]
        else:
            raise UsageError(f"{args.infile}: expected a basis list or an object with 'bases'")
        vectors = np.concatenate([b.T for b in bases], axis=0)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.infile} does not encode bases: {exc}") from exc
    deviation = design_check(vectors, args.trials, np.random.default_rng(_resolve_seed(args)))
    print(f"max deviation over {args.trials} random degree-2 functionals: {deviation:.17g}")
    if not deviation < ALGEBRAIC:  # a NaN deviation fails too
        raise ValidationFailure(f"vectors are not a 2-design (deviation {deviation:.3e} >= {ALGEBRAIC:.0e})")
    return 0


def cmd_disturbance(args) -> int:
    povm = _load_povm(args.povm)
    if args.method == "exact":
        report = min_disturbance_uniform(povm)
    elif args.method == "mc":
        report = avg_fidelity_mc(sqrt_instrument(povm), args.samples, np.random.default_rng(_resolve_seed(args)))
    else:
        pp = odd_prime_power(povm.dim)
        if pp is None:
            raise ValidationFailure(
                f"no unbiased-bases design available in dimension {povm.dim}; use --method exact or mc"
            )
        design = wootters_fields_mub(*pp).vectors()
        report = avg_fidelity_design(sqrt_instrument(povm), design)
    _emit(serialize.dumps(serialize.report_to_json(report)), args.out)
    return 0


def cmd_info(args) -> int:
    povm = _load_povm(args.povm)
    report = info_uniform_mc(povm, args.samples, np.random.default_rng(_resolve_seed(args)))
    if args.bits:
        report = report.in_bits()
    _emit(serialize.dumps(serialize.report_to_json(report)), args.out)
    return 0


def cmd_frontier(args) -> int:
    if args.d < 2:
        raise UsageError("dimension must be at least 2")
    if args.grid < 2:
        raise UsageError("grid needs at least two points")
    grid = list(np.linspace(0.0, args.d / (args.d + 1), args.grid))
    points = frontier_curve(
        args.d,
        grid,
        samples=args.samples,
        restarts=args.restarts,
        rng=np.random.default_rng(_resolve_seed(args)),
        max_iter=args.max_iter,
    )
    _emit(serialize.frontier_to_csv(points), args.out)
    if args.json is not None:
        _emit(serialize.dumps(serialize.frontier_to_json(points)), args.json)
    stragglers = [pt.p for pt in points if not pt.optimizer_meta.get("converged", False)]
    if stragglers and not args.allow_nonconverged:
        raise ConvergenceFailure(
            f"optimizer did not meet its convergence test at p = "
            f"{', '.join(f'{p:.4f}' for p in stragglers)} (rerun with --allow-nonconverged to accept)"
        )
    return 0


def cmd_twirl_check(args) -> int:
    povm = _load_povm(args.povm)
    rng = np.random.default_rng(_resolve_seed(args))
    p_star = twirl_depolarizing_p(povm)
    ratios = []
    for _ in range(args.states):
        rho = random_density(povm.dim, rng)
        mean, stderr = twirl_channel(povm, rho, args.samples, rng)
        diff = mean - depolarize(rho, p_star)
        floor = 1e-12
        ratios += [np.abs(diff.real) / (5 * stderr.real + floor), np.abs(diff.imag) / (5 * stderr.imag + floor)]
    # np.max propagates NaN, and a NaN ratio fails the comparison
    worst = float(np.max(ratios))
    passed = worst <= 1.0
    result = {
        "p_star": p_star,
        "samples": args.samples,
        "states": args.states,
        "worst_ratio_of_5stderr": worst,
        "passed": passed,
    }
    _emit(serialize.dumps(result), args.out)
    if not passed:
        raise ValidationFailure(
            f"twirled channel deviates from the depolarizing form by {worst:.2f}x the 5-stderr band"
        )
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def _add_common(parser: argparse.ArgumentParser, seed=True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides QF_SEED; default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodist",
        description="Information-disturbance tradeoff of quantum measurements on the uniform ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", help="construct mutually unbiased bases in dimension p^n")
    p_mub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p_mub.add_argument("--n", type=int, default=1, help="field extension degree")
    p_mub.add_argument("--cap", type=int, default=49, help="largest allowed dimension")
    _add_common(p_mub, seed=False)
    p_mub.set_defaults(func=cmd_mub)

    p_dc = sub.add_parser("design-check", help="test a set of bases for the 2-design property")
    p_dc.add_argument("--in", dest="infile", required=True, help="bases JSON (as written by mub)")
    p_dc.add_argument("--trials", type=_at_least(1), default=100)
    _add_common(p_dc)
    p_dc.set_defaults(func=cmd_design_check)

    p_dist = sub.add_parser("disturbance", help="minimal disturbance of a POVM on the uniform ensemble")
    p_dist.add_argument("--povm", required=True, help="POVM JSON file")
    p_dist.add_argument("--method", choices=("exact", "mc", "design"), default="exact")
    p_dist.add_argument("--samples", type=_at_least(2), default=100_000)
    _add_common(p_dist)
    p_dist.set_defaults(func=cmd_disturbance)

    p_info = sub.add_parser("info", help="outcome-state mutual information for the uniform ensemble")
    p_info.add_argument("--povm", required=True, help="POVM JSON file")
    p_info.add_argument("--samples", type=_at_least(2), default=100_000)
    p_info.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_fr = sub.add_parser("frontier", help="information-disturbance frontier of the uniform ensemble")
    p_fr.add_argument("--d", type=int, required=True)
    p_fr.add_argument("--grid", type=int, default=11, help="number of p values on [0, d/(d+1)]")
    p_fr.add_argument(
        "--samples", type=_at_least(2), default=200, help="Haar states in each point's Monte Carlo re-score (JSON only)"
    )
    p_fr.add_argument("--restarts", type=_at_least(1), default=16, help="random starting spectra per grid point")
    p_fr.add_argument("--max-iter", dest="max_iter", type=_at_least(1), default=500, help="iteration budget of each ascent")
    p_fr.add_argument("--json", default=None, help="also write the JSON variant with optimizer metadata")
    p_fr.add_argument("--allow-nonconverged", action="store_true")
    _add_common(p_fr)
    p_fr.set_defaults(func=cmd_frontier)

    p_tw = sub.add_parser("twirl-check", help="verify the Haar twirl matches the depolarizing form")
    p_tw.add_argument("--povm", required=True, help="POVM JSON file")
    p_tw.add_argument("--samples", type=_at_least(2), default=10_000)
    p_tw.add_argument("--states", type=_at_least(1), default=3, help="number of random test states")
    _add_common(p_tw)
    p_tw.set_defaults(func=cmd_twirl_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, InfodistError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"convergence warning: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
