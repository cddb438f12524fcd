"""Benchmark of the infodist command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload. It repeats the workload's CLI
invocations (``infodist.cli.main(argv)``, in process) until ``--seconds``
have passed, and at least three times. Each repetition first sets up
afresh: it re-imports the package, so caches start cold as in a new CLI
process, writes its seeded input files and creates its work directory.
The timed section is the CLI calls alone. Output checks and hashing run
after the last repetition, once the process's peak RSS has been read, so
that figure is the program's own.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: medians over the repetitions of the timed section's wall
time and of the set-up time, the process's peak RSS, and the share of
operations whose outputs pass their checks. With ``--trace 1`` untraced
and traced repetitions alternate, and the last line reports the per-layer
metrics; their times are medians over the traced repetitions, their
counts must repeat exactly. ``correct`` is false unless every repetition
wrote byte-identical outputs, traced or not, and passed and failed the
same operations.

The work directories and a traced run's span file go to ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from tracer import LAYERS, Tracer, summarize, write_jsonl
from workloads import WORKLOADS, CmdResult, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 10  # stand-alone set-ups before each repetition


@dataclass
class Rep:
    traced: bool
    setup: float
    wall: float
    cpu: float
    work: Path
    results: list[CmdResult]
    spans: list
    # filled in by check_rep, after the measurement
    ops: list[bool] | None = None
    facts: dict | None = None
    digest: str = ""


def fresh_import():
    """Import ``infodist.cli`` from scratch, as a new CLI process would."""
    for name in [n for n in sys.modules if n == "infodist" or n.startswith("infodist.")]:
        del sys.modules[name]
    return importlib.import_module("infodist.cli")


def output_digest(work: Path, results: list[CmdResult]) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(f"{res.rc}\0{res.stdout}\0".encode())
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload: Workload, seed: int):
    """Fresh import, work directory and input files; returns the CLI
    module, the directory and the seconds it took."""
    t0 = perf_counter()
    cli = fresh_import()
    work = Path(tempfile.mkdtemp(dir=OUT))
    workload.write_inputs(work, seed)
    return cli, work, perf_counter() - t0


def run_rep(workload: Workload, seed: int, index: int, tracer: Tracer | None) -> Rep:
    """Set up and run one repetition; its outputs stay in its work
    directory until check_rep."""
    cli, work, setup = set_up(workload, seed)
    if tracer is not None:
        tracer.instrument()
    commands = workload.commands(work, seed)
    results = []
    c0, t1 = process_time(), perf_counter()
    if tracer is not None:
        tracer.active = True
    for i, argv in enumerate(commands):
        if tracer is not None:
            tracer.op = f"{index}:{i}"
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op fails; the run goes on
            traceback.print_exc()
            rc = None
        results.append(CmdResult(rc, out.getvalue()))
    wall, cpu = perf_counter() - t1, process_time() - c0
    if tracer is not None:
        tracer.active = False
    spans = tracer.take() if tracer is not None else []
    return Rep(tracer is not None, setup, wall, cpu, work, results, spans)


def check_rep(workload: Workload, rep: Rep, checked: dict) -> None:
    """Hash and check one repetition's outputs, then remove them. Outputs
    byte-identical to ones already checked (``checked``, by digest) get the
    same verdicts without checking them again."""
    try:
        rep.digest = output_digest(rep.work, rep.results)
        if rep.digest not in checked:
            checked[rep.digest] = workload.check(rep.work, rep.results)
        rep.ops, rep.facts = checked[rep.digest]
    finally:
        shutil.rmtree(rep.work)


def layer_values(rep: Rep, names: list[str]) -> dict:
    """Per-layer metric values of one traced repetition."""
    summary = summarize(rep.spans)
    fns = summary["functions"]
    restarts = rep.facts.get("restarts", 0)
    values = {
        "frontier.steps": summary["steps"],
        "frontier.steps_per_restart": summary["steps"] / restarts if restarts else 0.0,
        "serialize.bytes_out": summary["bytes_out"],
    }
    values.update({f"frontier.{k}": v for k, v in rep.facts.items()})
    for layer, stats in summary["layers"].items():
        values.update({f"{layer}.{k}": v for k, v in stats.items()})
    for name in names:
        layer, _, rest = name.partition(".")
        fn, _, stat = rest.rpartition(".")
        if name in values or layer not in LAYERS or stat not in ("calls", "s", "self_s"):
            continue
        # cli.<command>.s is the span of the command's handler, cmd_<command>
        span = f"cli.cmd_{fn.replace('-', '_')}" if layer == "cli" else f"{layer}.{fn}"
        values[name] = fns.get(span, {}).get(stat, 0)
    return values


def blas_threads() -> int | None:
    """OpenBLAS's thread setting, read from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "infodist").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "infodist" / "cli.py").is_file():
        print(f"perfbench: no infodist sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if not Path(fresh_import().__file__).resolve().is_relative_to(SRC.resolve()):
        print("perfbench: infodist was not imported from src/", file=sys.stderr)
        return 2
    env = fingerprint(args)

    tracer = Tracer() if args.trace else None
    min_reps = 2 * MIN_TRACED_REPS if args.trace else MIN_REPS
    reps: list[Rep] = []
    setups = []
    start = perf_counter()
    try:
        while True:
            # stand-alone set-ups spread over the run steady the set-up median
            for _ in range(SETUP_SAMPLES):
                _, work, seconds = set_up(workload, args.seed)
                shutil.rmtree(work)
                setups.append(seconds)
            traced = args.trace == 1 and len(reps) % 2 == 1
            reps.append(run_rep(workload, args.seed, len(reps), tracer if traced else None))
            elapsed = perf_counter() - start
            balanced = args.trace == 0 or len(reps) % 2 == 0
            if len(reps) >= min_reps and balanced and elapsed * (1 + 1 / len(reps)) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked: dict = {}
        for rep in reps:
            check_rep(workload, rep, checked)
    finally:
        for rep in reps:
            shutil.rmtree(rep.work, ignore_errors=True)

    plain = [r for r in reps if not r.traced]
    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.ops.count(False) for r in reps)
    correct = all(r.digest == reps[0].digest and r.ops == reps[0].ops for r in reps)
    wall = statistics.median(r.wall for r in plain)
    setups += [r.setup for r in plain]
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": (attempted - failed) / attempted,
        "process.cpu_s": statistics.median(r.cpu for r in plain),
    }
    if args.trace:
        names = [m["name"] for m in wanted]
        per_rep = [layer_values(r, names) for r in reps if r.traced]
        units = {m["name"]: m["unit"] for m in wanted}
        for name in names:
            if name in values or name == "trace.overhead_frac":
                continue
            seen = [v[name] for v in per_rep]
            if units[name] == "s":
                values[name] = statistics.median(seen)
            else:  # counts repeat exactly in a deterministic program
                correct = correct and all(x == seen[0] for x in seen)
                values[name] = seen[0]
        values["trace.overhead_frac"] = statistics.median(r.wall for r in reps if r.traced) / wall - 1
        write_jsonl(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", [r.spans for r in reps if r.traced], start)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {len(reps)} repetitions ({len(plain)} untraced) in {perf_counter() - start:.1f} s; outputs sha256 {reps[0].digest}")
    print(f"# wall_s per repetition {json.dumps([[round(r.wall, 4), int(r.traced)] for r in reps])} [s, traced]")
    print(f"# setup_s quartiles over {len(setups)} set-ups {json.dumps([round(q, 5) for q in statistics.quantiles(setups, n=4)])} s")
    print(f"# ops {attempted}, ops_failed {failed}, error_rate {failed / attempted:.6g} fraction")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
