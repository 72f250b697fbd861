"""End-to-end benchmark of the kncross command line, with a traced variant.

    python3 perfbench/run.py --workload analyze|certify|hunt --seed N \
        --seconds S --trace 0|1

Run from the root of a kncross source tree.  Every operation is one or
more in-process calls of `kncross.cli.main(argv)` with stdout captured,
parsed and checked against answers computed in `checks.py`.  A run is
one process and one closed-loop client:

1. set-up, repeated SETUP_ROUNDS times: import kncross afresh and write
   the workload's input files with the program's generators and
   `io.serialize`;
2. one warm-up operation, untimed;
3. a fixed number of whole cycles over the workload's fixed input set,
   `round(S / nominal cycle length)`; the seed only shuffles the order
   within each cycle, so every run executes the same operations.
   `gc.collect()` runs before each operation, outside its timing;
4. with `--trace 1`: one traced set-up and one traced cycle
   (`tracing.py`), reported as per-layer metrics with the tracing
   overhead against the untraced cycles.

A reference loop of fixed stdlib work is timed before and after the
cycles and printed beside the metrics, so a slower machine can be told
apart from a slower program.  The last line of stdout is the result
object; reports and traces go to `.perfbench-out/` in the tree.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import checks
from checks import CheckFailed, require
from tracing import METRICS, Tracer

SETUP_ROUNDS = 5
OUT_DIR = ".perfbench-out"
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}

# Random rectilinear drawings (n, seed) analysed from map files.  One size
# only: with K_13 and K_14 mixed, the median operation falls in the gap
# between the two groups and jumps from run to run.
ANALYZE_DRAWINGS = tuple((14, seed) for seed in range(1, 7))

# Random K_12 drawings that are 4-bishellable but not 6-shellable, as
# listed by `find_certify_inputs.py --start 500 --stop 640`.
CERTIFY_N = 12
CERTIFY_SEEDS = (502, 505, 511, 567, 629)
CERTIFY_BISHELL_ORDER = CERTIFY_N // 2 - 2
CERTIFY_SHELL_LENGTH = 6

# `hunt` windows: first seed of each run of trials.
HUNT_N = 7
HUNT_TRIALS = 100
HUNT_WINDOWS = (0, 100, 200, 300, 400)


class OperationFailed(Exception):
    """A CLI call raised or exited with the usage/input error code 2."""


Call = Tuple[int, str, str]   # exit code, stdout, stderr


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _checked_points(package, drawing, n: int, seed: int) -> List[Tuple[int, int]]:
    """The SplitMix64 points of (n, seed), once the generator's points file agrees."""
    pts = checks.random_points(n, seed)
    written = []
    for line in package.serialize(drawing, "points").decode().splitlines():
        parts = line.split()
        if parts[0] == "v":
            x, y = Fraction(parts[2]), Fraction(parts[3])
            require(x.denominator == y.denominator == 1, "non-integer grid point")
            written.append((int(x), int(y)))
    require(written == pts, f"gen_random_points({n}, {seed}) differs from the SplitMix64 points")
    return pts


class Analyze:
    """`analyze --json` on map files of random K_14 drawings."""

    nominal_cycle_s = 1.8

    def build(self, package, workdir: Path) -> list:
        inputs = []
        for n, seed in ANALYZE_DRAWINGS:
            drawing = package.gen_random_points(n, seed)
            path = workdir / f"analyze-k{n}-s{seed}.map"
            path.write_bytes(package.serialize(drawing, "map"))
            inputs.append((n, seed, str(path), drawing))
        return inputs

    def prepare(self, package, inputs) -> list:
        expected = []
        for n, seed, _, drawing in inputs:
            pts = _checked_points(package, drawing, n, seed)
            expected.append(checks.analyze_expectation(pts))
        return expected

    def operation(self, item) -> List[List[str]]:
        return [["analyze", item[2], "--json"]]

    def check(self, item, expected, calls: Sequence[Call]) -> None:
        (rc, out, _), = calls
        require(rc == 0, f"analyze exited {rc}")
        checks.check_analyze(json.loads(out), expected)


class Certify:
    """bishell check, witness verification and an exhaustive 6-shell refusal."""

    nominal_cycle_s = 7.0

    def build(self, package, workdir: Path) -> list:
        inputs = []
        for seed in CERTIFY_SEEDS:
            drawing = package.gen_random_points(CERTIFY_N, seed)
            path = workdir / f"certify-k{CERTIFY_N}-s{seed}.map"
            path.write_bytes(package.serialize(drawing, "map"))
            inputs.append((seed, str(path), path.with_suffix(".wit"), drawing))
        return inputs

    def prepare(self, package, inputs) -> list:
        expected = []
        for seed, _, _, drawing in inputs:
            pts = _checked_points(package, drawing, CERTIFY_N, seed)
            # The program's refusal covers every face; the unbounded one
            # can be searched without it.
            expected.append(checks.unbounded_shell_witness(pts, CERTIFY_SHELL_LENGTH))
        return expected

    def operation(self, item) -> List[List[str]]:
        _, path, witness, _ = item
        if witness.exists():
            witness.unlink()
        return [["check", path, "--mode", "bishell", "--witness-out", str(witness)],
                ["verify", path, "--witness", str(witness)],
                ["check", path, "--mode", "shell", "--s", str(CERTIFY_SHELL_LENGTH)]]

    def check(self, item, expected, calls: Sequence[Call]) -> None:
        (rc1, out1, _), (rc2, out2, _), (rc3, out3, _) = calls
        require(rc1 == 0, f"bishell check exited {rc1}")
        witness = item[2].read_text()
        require(out1 == witness, "printed witness differs from the witness file")
        checks.check_bishell_witness(witness, CERTIFY_N, CERTIFY_BISHELL_ORDER)
        require(rc2 == 0 and out2 == "witness verifies\n", f"verify exited {rc2}: {out2!r}")
        require(expected is None,
                f"hull search found the 6-shell witness {expected} at the unbounded face")
        require(rc3 == 1 and out3 == "no witness (exhaustive search)\n",
                f"shell check exited {rc3}: {out3!r}")


class Hunt:
    """`hunt --n 7 --trials 100 --target optimal`, one call per seed window."""

    nominal_cycle_s = 4.5

    def build(self, package, workdir: Path) -> list:
        return list(HUNT_WINDOWS)

    def prepare(self, package, inputs) -> list:
        return [checks.hunt_expectation(HUNT_N, first, HUNT_TRIALS) for first in inputs]

    def operation(self, item) -> List[List[str]]:
        return [["hunt", "--n", str(HUNT_N), "--trials", str(HUNT_TRIALS),
                 "--seed", str(item), "--target", "optimal"]]

    def check(self, item, expected, calls: Sequence[Call]) -> None:
        (rc, out, _), = calls
        distinct, matches = expected
        require(rc == 0, f"hunt exited {rc}")
        lines = out.splitlines()
        want = [f"trials={HUNT_TRIALS} distinct={distinct} matches={len(matches)}"]
        want += [f"  seed={seed} cr={cr}" for seed, cr in matches]
        require(lines == want, f"hunt printed {lines}, expected {want}")


WORKLOADS = {"analyze": Analyze, "certify": Certify, "hunt": Hunt}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def fresh_import():
    """Import kncross and its CLI as a new process would."""
    for name in [m for m in sys.modules if m == "kncross" or m.startswith("kncross.")]:
        del sys.modules[name]
    package = importlib.import_module("kncross")
    importlib.import_module("kncross.cli")
    return package


def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter work that kncross never touches."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(150_000):
        acc = (acc * 1_103_515_245 + i) % 2_147_483_647
        table[acc & 1023] = table.get(acc & 1023, 0) + 1
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - start


def run_operation(package, workload, item) -> Tuple[float, List[Call]]:
    """Wall time of one operation and what each of its CLI calls returned."""
    argvs = workload.operation(item)
    gc.collect()
    calls: List[Call] = []
    start = time.perf_counter()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = package.cli.main(argv)
            calls.append((code, out.getvalue(), err.getvalue()))
    except (Exception, SystemExit) as exc:
        raise OperationFailed(f"{argvs[len(calls)][0]} raised {exc!r}") from exc
    elapsed = time.perf_counter() - start
    for code, _, err in calls:
        if code == 2:
            raise OperationFailed(f"exit code 2: {err.strip()}")
    return elapsed, calls


class Tally:
    """Operations attempted and failed, and the problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: List[str] = []

    def run(self, package, workload, item, expected) -> Optional[float]:
        self.attempted += 1
        try:
            elapsed, calls = run_operation(package, workload, item)
        except OperationFailed as exc:
            self.failed += 1
            self.problems.append(f"failed: {exc}")
            return None
        try:
            workload.check(item, expected, calls)
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.correct = False
            self.problems.append(f"wrong output: {exc}")
        return elapsed


def cycles_for(seconds: int, workload) -> int:
    return max(1, round(seconds / workload.nominal_cycle_s))


def measure(args, root: Path) -> dict:
    workload = WORKLOADS[args.workload]()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        return _measure(args, workload, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, out_dir: Path, workdir: Path) -> dict:
    setup_s: List[float] = []
    ref_loop_s: List[float] = []

    def set_up():
        # Rounds are spread over the run, so that their median does not
        # rest on one moment of a machine whose speed drifts.
        ref_loop_s.append(reference_loop())
        gc.collect()
        start = time.perf_counter()
        package = fresh_import()
        inputs = workload.build(package, workdir)
        setup_s.append(time.perf_counter() - start)
        return package, inputs

    package, inputs = set_up()
    tally = Tally()
    try:
        expected = workload.prepare(package, inputs)
    except CheckFailed as exc:
        tally.correct = False
        tally.problems.append(f"inputs: {exc}")
        expected = [None] * len(inputs)

    rng = random.Random(args.seed)
    cycles = cycles_for(args.seconds, workload)
    orders = []
    for _ in range(cycles):
        order = list(range(len(inputs)))
        rng.shuffle(order)
        orders.append(order)
    # set-up round i (of the later ones) runs before cycle ceil(i * cycles / rounds)
    later_rounds = [i * cycles / SETUP_ROUNDS for i in range(1, SETUP_ROUNDS)]

    tally.run(package, workload, inputs[orders[0][0]], expected[orders[0][0]])  # warm-up
    op_s = []
    for cycle, order in enumerate(orders):
        while later_rounds and later_rounds[0] <= cycle:
            later_rounds.pop(0)
            package, inputs = set_up()
        for index in order:
            elapsed = tally.run(package, workload, inputs[index], expected[index])
            if elapsed is not None:
                op_s.append(elapsed)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in later_rounds:
        package, inputs = set_up()

    report = {
        "workload": args.workload, "seed": args.seed, "cycles": cycles,
        "inputs": len(inputs), "setup_s": setup_s, "op_s": op_s,
        "schedule": [i for order in orders for i in order],
        "ref_loop_s": ref_loop_s,
    }
    if op_s:
        report["end_to_end"] = {
            "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_s": statistics.median(op_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": peak_rss_mib,
        }
    if args.trace:
        report["per_layer"] = _traced(package, workload, workdir, rng, tally,
                                      expected, sum(op_s) / cycles, out_dir, args)
    report.update(attempted=tally.attempted, failed=tally.failed,
                  correct=tally.correct, problems=tally.problems[:20])
    return report


def _traced(package, workload, workdir: Path, rng, tally: Tally, expected,
            untraced_cycle_s: float, out_dir: Path, args) -> dict:
    tracer = Tracer()
    tracer.install(package)
    try:
        inputs = workload.build(package, workdir)
        order = list(range(len(inputs)))
        rng.shuffle(order)
        traced_cycle_s = 0.0
        for index in order:
            traced_cycle_s += tally.run(package, workload, inputs[index], expected[index]) or 0.0
    finally:
        tracer.uninstall()
    overhead = traced_cycle_s / untraced_cycle_s - 1.0 if untraced_cycle_s else 0.0
    metrics = tracer.metrics(overhead)
    tracer.write(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"), metrics)
    return metrics


def _root() -> Optional[Path]:
    root = Path.cwd()
    if (root / "src" / "kncross" / "__init__.py").is_file():
        return root
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = _root()
    if root is None:
        print("error: run from the root of a kncross source tree (src/kncross missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    report = measure(args, root)
    path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    units = dict(METRICS) if args.trace else END_TO_END_UNITS
    values = report["per_layer"] if args.trace else report.get("end_to_end", {})
    ref = report["ref_loop_s"]
    print(f"workload={args.workload} seed={args.seed} cycles={report['cycles']} "
          f"ops={len(report['op_s'])} ref_loop_s median={statistics.median(ref):.4f} "
          f"min={min(ref):.4f} max={max(ref):.4f}")
    for problem in report["problems"]:
        print(problem)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
