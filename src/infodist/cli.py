"""Command-line front end.

Subcommands: mub, design-check, disturbance, info, frontier, twirl-check.
``build_parser`` registers them from one table: name, help, handler and
the function that adds the subcommand's arguments. ``main`` builds only the
invoked subcommand's arguments; the other subcommands stay registered, bare,
so usage, help and error text are those of the full parser. A first word
that names no subcommand (an option, a typo, none) gets the full parser.
All randomness is seeded (flag --seed, default 0; never the clock), so
identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 validation failure (``InfodistError``) or a failed
allocation (``MemoryError``), 2 usage error (``UsageError``). Commands fail
by raising; only ``main`` maps an outcome to an exit code.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Iterable

import numpy as np

from . import serialize
from .config import DESIGN, DISTINCT_NUMBERS, STDERR_FLOOR
from .disturbance import avg_fidelity_design, avg_fidelity_mc, min_disturbance_uniform, twirl_depolarizing_p
from .errors import InfodistError
from .frontier import depolarize, frontier_curve, twirl_channel
from .galois import design_check, odd_prime_power, wootters_fields_mub
from .information import info_uniform_mc
from .linalg import random_density
from .measurement import POVM, povm_validate, sqrt_instrument


class UsageError(Exception):
    pass


class _Overflow(Exception):
    """More than ``DISTINCT_NUMBERS`` number texts; not a ValueError."""


class _Numbers(dict):
    """float(text) by number text: each distinct text is parsed once, and its
    occurrences share one float. Holds at most ``DISTINCT_NUMBERS`` texts."""

    def __missing__(self, text: str) -> float:
        if len(self) == DISTINCT_NUMBERS:
            raise _Overflow
        value = self[text] = float(text)
        return value


def _read_json(path: str, object_hook=None):
    """The JSON value in ``path``, with the values ``json.loads`` gives, bit for
    bit, each object passed through ``object_hook`` when one is given. Each
    distinct number text is parsed once; a file with more than
    ``DISTINCT_NUMBERS`` distinct texts is parsed again by plain
    ``json.loads``, so the memo stays small. Read files through ``_load``,
    which converts each matrix as its object closes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        try:
            return json.loads(text, parse_float=_Numbers().__getitem__, object_hook=object_hook)
        except _Overflow:  # leave the handler, so the memo is freed before the second parse
            pass
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of over 4,300 digits, or deep nesting
        raise UsageError(f"{path} is beyond what Python's JSON reader accepts: {exc}") from exc


def _matrix_array(obj: dict) -> dict:
    """json object hook: a matrix object's ``data`` list as ``np.asarray``
    makes it, so its ``[re, im]`` lists are dropped as soon as the object
    closes. Data numpy refuses stays a list, and ``matrix_from_json`` refuses
    it, with numpy's message, where it would have anyway."""
    data = obj.get("data")
    if isinstance(data, list) and "rows" in obj and "cols" in obj:
        try:
            obj["data"] = np.asarray(data)
        except (ValueError, TypeError):  # ragged pairs, or nesting deeper than numpy's dimensions
            pass
    return obj


def _load(path: str, convert):
    """``convert`` of the JSON value in ``path``, each matrix's data made an
    array as the parse closes the matrix's object: at most one matrix's
    ``[re, im]`` lists exist at once, beside the file's text. The cyclic
    collector is paused until ``convert`` returns or raises and restored on
    every path: a parse makes one list per matrix entry, none in a cycle,
    which the collector would only rescan until they are converted and
    dropped."""
    collecting = gc.isenabled()
    gc.disable()
    try:  # the parsed JSON, an argument only, is dropped before the collector resumes
        return convert(_read_json(path, _matrix_array))
    finally:
        if collecting:
            gc.enable()


def _load_povm(path: str) -> POVM:
    try:
        povm = _load(path, serialize.povm_from_json)
    except (KeyError, TypeError, ValueError) as exc:
        raise InfodistError(f"{path} does not encode a POVM: {exc}") from exc
    diag = povm_validate(povm)
    if not diag.passed:
        raise InfodistError(
            f"{path} violates POVM invariants: hermiticity residual "
            f"{diag.max_hermiticity_violation:.3e}, positivity violation "
            f"{diag.max_psd_violation:.3e}, completeness residual "
            f"{diag.completeness_residual:.3e}"
        )
    return povm


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` in order to ``out`` or stdout. JSON arrives as the
    pieces of ``serialize.iterdumps``, so it is never held whole."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def cmd_mub(args) -> None:
    mub = wootters_fields_mub(args.p, args.n)
    _emit(serialize.iterdumps(serialize.mubset_to_json(mub, p=args.p, n=args.n)), args.out)


def _read_vectors(path: str) -> np.ndarray:
    """The basis vectors stored in ``path`` (a basis list, or an object with
    'bases'), one per row."""

    def vectors(obj) -> np.ndarray:
        if isinstance(obj, dict) and "bases" in obj:
            obj = obj["bases"]
        elif not isinstance(obj, list):
            raise UsageError(f"{path}: expected a basis list or an object with 'bases'")
        return np.concatenate([serialize.matrix_from_json(b).T for b in obj], axis=0)

    try:
        return _load(path, vectors)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} does not encode bases: {exc}") from exc


def cmd_design_check(args) -> None:
    delta = design_check(_read_vectors(args.infile))
    _emit([f"squared distance from the Haar second moment, ||D - Pi||_F^2 d(d+1)/2: {delta:.17g}\n"], args.out)
    if not delta < DESIGN:  # a NaN distance fails too
        raise InfodistError(f"vectors are not a 2-design (distance {delta:.3e} >= {DESIGN:.0e})")


def cmd_disturbance(args) -> None:
    povm = _load_povm(args.povm)
    if args.method == "exact":
        report = min_disturbance_uniform(povm)
    elif args.method == "mc":
        report = avg_fidelity_mc(sqrt_instrument(povm), args.samples, np.random.default_rng(args.seed))
    else:
        pp = odd_prime_power(povm.dim)
        if pp is None:
            raise InfodistError(f"no unbiased-bases design available in dimension {povm.dim}; use --method exact or mc")
        design = wootters_fields_mub(*pp).vectors()
        report = avg_fidelity_design(sqrt_instrument(povm), design)
    _emit(serialize.iterdumps(serialize.report_to_json(report)), args.out)


def cmd_info(args) -> None:
    povm = _load_povm(args.povm)
    report = info_uniform_mc(povm, args.samples, np.random.default_rng(args.seed))
    if args.bits:
        report = report.in_bits()
    _emit(serialize.iterdumps(serialize.report_to_json(report)), args.out)


def cmd_frontier(args) -> None:
    grid = list(np.linspace(0.0, args.d / (args.d + 1), args.grid))
    points = frontier_curve(args.d, grid)
    csv = serialize.frontier_to_csv(points)
    if args.json is not None:  # first, so a --json that cannot be written leaves no finished-looking CSV
        _emit(serialize.iterdumps(serialize.frontier_to_json(points)), args.json)
    _emit([csv], args.out)


def cmd_twirl_check(args) -> None:
    povm = _load_povm(args.povm)
    p_star = twirl_depolarizing_p(povm)
    rng = np.random.default_rng(args.seed)
    ratios = []
    for _ in range(args.states):
        rho = random_density(povm.dim, rng)
        mean, stderr = twirl_channel(povm, rho, args.samples, rng)
        diff = mean - depolarize(rho, p_star)
        ratios += [
            np.abs(diff.real) / (5 * stderr.real + STDERR_FLOOR),
            np.abs(diff.imag) / (5 * stderr.imag + STDERR_FLOOR),
        ]
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
    _emit(serialize.iterdumps(result), args.out)
    if not passed:
        raise InfodistError(
            f"twirled channel deviates from the depolarizing form by {worst:.2f}x the 5-stderr band"
        )


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
        parser.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


_IGNORED = "ignored: what it tuned is gone; parsed until ROADMAP item 5 stops perfbench passing it"


def _mub_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p.add_argument("--n", type=int, default=1, help="field extension degree")
    _add_common(p, seed=False)


def _design_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="bases JSON (as written by mub)")
    p.add_argument("--trials", type=_at_least(1), default=100, help=_IGNORED)
    p.add_argument("--seed", type=_at_least(0), default=0, help=_IGNORED)
    _add_common(p, seed=False)


def _disturbance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--method", choices=("exact", "mc", "design"), default="exact")
    p.add_argument("--samples", type=_at_least(2), default=100_000)
    _add_common(p)


def _info_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--samples", type=_at_least(2), default=100_000)
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    _add_common(p)


def _frontier_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=_at_least(2), required=True)
    p.add_argument("--grid", type=_at_least(2), default=11, help="number of p values on [0, d/(d+1)]")
    p.add_argument("--samples", type=_at_least(2), default=200, help=_IGNORED)
    p.add_argument("--json", default=None, help="also write the JSON variant with each point's seeds")
    p.add_argument("--restarts", type=_at_least(1), default=16, help=_IGNORED)
    p.add_argument("--max-iter", dest="max_iter", type=_at_least(1), default=500, help=_IGNORED)
    p.add_argument("--allow-nonconverged", action="store_true", help=_IGNORED)
    p.add_argument("--seed", type=_at_least(0), default=0, help=_IGNORED)
    _add_common(p, seed=False)


def _twirl_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--samples", type=_at_least(2), default=10_000)
    p.add_argument("--states", type=_at_least(1), default=3, help="number of random test states")
    _add_common(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``infodist`` parser. Every subcommand is registered, so usage,
    help and choices never change; only ``command``'s subparser gets its
    arguments, unless ``command`` names no subcommand (None, an option, a
    typo), in which case all of them do."""
    parser = argparse.ArgumentParser(
        prog="infodist",
        description="Information-disturbance tradeoff of quantum measurements on the uniform ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help, handler, arguments; built on each call, so a rebound cmd_* (a wrapper) is the one dispatched to
    commands = (
        ("mub", "construct mutually unbiased bases in dimension p^n", cmd_mub, _mub_args),
        ("design-check", "test a set of bases for the 2-design property", cmd_design_check, _design_check_args),
        ("disturbance", "minimal disturbance of a POVM on the uniform ensemble", cmd_disturbance, _disturbance_args),
        ("info", "outcome-state mutual information for the uniform ensemble", cmd_info, _info_args),
        ("frontier", "information-disturbance frontier of the uniform ensemble", cmd_frontier, _frontier_args),
        ("twirl-check", "verify the Haar twirl matches the depolarizing form", cmd_twirl_check, _twirl_check_args),
    )
    every = command not in {name for name, *_ in commands}
    for name, text, handler, add_args in commands:
        if every or name == command:
            p = sub.add_parser(name, help=text)
            add_args(p)
            p.set_defaults(func=handler)
        else:  # never parsed with: a bare entry, without even a -h
            sub.add_parser(name, help=text, add_help=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfodistError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size that cannot be allocated, e.g. --samples 10**15
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
