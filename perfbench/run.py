#!/usr/bin/env python3
"""Benchmark for tcreal: the public CLI, in-process, on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  One process is a closed loop of one caller: each
``tcreal.cli.main(argv)`` call starts when the previous one has returned,
with stdin fed from memory, stdout captured and ``--out`` pointing into a
scratch directory under ``perfbench/``.  Every output is checked outside
the timed region (``workloads.py``, ``reference.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
their times are scaled to a reference host speed (``HostSpeed``).
With ``--trace 1`` each op runs untraced and then traced (``tracer.py``),
and the last line holds the per-layer metrics of one period of ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import reference  # noqa: E402
from workloads import WORKLOADS, Context, Op, Outcome, shares  # noqa: E402

SETUP_REPEATS = 5
# Host-speed calibration (see HostSpeed): a block of CALIBRATION_LOOPS
# runs of a fixed loop, taken at most every CALIBRATION_EVERY_S seconds,
# and the loop's time on the reference host in its fast phase.
CALIBRATION_LOOPS = 3
CALIBRATION_EVERY_S = 0.25
REFERENCE_LOOP_S = 0.008
# is_tc holds n bitsets of n bits plus a snapshot of them; allow them at
# most this share of the available memory.
TC_MEMORY_SHARE = 0.25
MS_FIELD = re.compile(r'"ms": [-+.0-9eE]+')

COUNT_METRICS = (
    ["degseq.lay_off_calls", "graphstore.attach_calls", "verify.earliest_arrival_calls",
     "graphstore.edge_slots", "graphstore.dead_slots", "graphstore.json_bytes",
     "labeling.max_label"]
    + ["realize.route." + r for r in reference.REASONS]
)
TIME_METRICS = (
    "degseq.parse_s", "degseq.graphical_s", "degseq.lay_off_s",
    "realize.decide_s", "realize.construct_s", "realize.pipeline_s",
    "graphstore.replay_s", "graphstore.attach_s", "graphstore.certificate_s",
    "graphstore.to_json_s", "graphstore.from_json_s",
    "labeling.pivot_label_s", "labeling.apply_s",
    "verify.is_tc_s", "verify.is_proper_s", "verify.is_simple_s",
    "verify.certificate_s", "verify.earliest_arrival_s",
    "cli.other_s", "trace.overhead_s", "trace.wall_s",
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def mem_available() -> int:
    """MemAvailable from /proc/meminfo, in bytes."""
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no MemAvailable in /proc/meminfo")


def tc_cap(available: int) -> int:
    """Largest n whose 2 * n^2/8 bytes of is_tc bitsets fit the share."""
    return math.isqrt(int(TC_MEMORY_SHARE * available * 8 / 2))


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Calling the CLI
# ---------------------------------------------------------------------------


def call(cli, argv: List[str], stdin: str, path: str = "") -> Outcome:
    """One closed-loop call of ``cli.main``; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejections
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed op, not a failed run
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return Outcome(rc, out.getvalue(), err.getvalue(), wall, path)


def fresh_cli():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "tcreal" or m.startswith("tcreal.")]:
        del sys.modules[name]
    return importlib.import_module("tcreal.cli")


def setup(workload, seed: int, work: str, cap: int):
    """Import, make the period's inputs and warm up; returns the time taken."""
    t0 = time.perf_counter()
    cli = fresh_cli()
    ctx = Context(work, cap, random.Random(seed ^ 0x5EED),
                  lambda argv, stdin: call(cli, argv, stdin))
    ops = workload.make(random.Random(seed), ctx)
    for op in ops:
        if op.argv[0] == "build" and "--no-verify" not in op.argv and op.n > cap:
            raise MemoryError(f"a self-verified build at n={op.n} exceeds the is_tc cap {cap}")
    call(cli, ["check", "--format", "json", "3", "3", "3", "3"], "")
    return time.perf_counter() - t0, cli, ops, ctx


class Runner:
    """Executes ops and remembers what their outputs must be checked for.

    The first execution of an op is checked in full after the timed
    region.  A repeat whose exit code, report and document equal the first
    one's inherits its verdict; any other repeat is checked in full.
    """

    def __init__(self, cli, workload, ctx: Context):
        self.cli, self.workload, self.ctx = cli, workload, ctx
        self.executions = 0
        self.first: Dict[int, Tuple] = {}
        self.same: Dict[int, int] = {}  # op index -> executions equal to the first
        self.pending: List[Tuple[Op, Outcome, bool]] = []  # (op, outcome, is first)
        self.ran: List[Op] = []

    def execute(self, op: Op) -> Outcome:
        path = os.path.join(self.ctx.work, f"out-{self.executions}.json")
        self.executions += 1
        self.ran.append(op)
        argv = [path if a == "{out}" else a for a in op.argv]
        gc.collect()
        out = call(self.cli, argv, op.stdin, path if "{out}" in op.argv else "")
        key = self._fingerprint(out)
        if op.index not in self.first:
            self.first[op.index] = key
            self.same[op.index] = 1
            self.pending.append((op, out, True))
        elif key == self.first[op.index]:
            self.same[op.index] += 1
            if out.path:
                os.remove(out.path)
        else:
            self.pending.append((op, out, False))
        return out

    @staticmethod
    def _fingerprint(out: Outcome) -> Tuple:
        # The CLI reports its own timing as "ms"; everything else must repeat.
        digest = hashlib.sha256(MS_FIELD.sub("", out.stdout).encode())
        if out.path:
            with open(out.path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        return out.rc, digest.hexdigest()

    def check(self) -> Tuple[int, List[str]]:
        """Full checks of every pending output; returns (failed, messages)."""
        failed, messages = 0, []
        for op, out, first in self.pending:
            try:
                problem = self.workload.check(op, out, self.ctx)
            except Exception as exc:  # malformed output is a failed check
                problem = f"check raised {exc!r}"
            if problem is not None:
                failed += self.same[op.index] if first else 1
                messages.append(f"op {op.index} ({op.group}): {problem}")
        return failed, messages


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop; it never touches tcreal."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host runs Python right now, sampled between calls.

    On a shared host the same code runs up to ~1.4x slower while the
    neighbours are busy, in phases of tens of seconds, so a run of the
    same code reads 20-40% apart depending on where it falls.  Each timed
    region is scaled by ``REFERENCE_LOOP_S`` over the median calibration
    loop time of the blocks just before and just after it: times read as
    seconds on a host where the loop takes ``REFERENCE_LOOP_S``.  The loop
    runs no tcreal code, so a slower program still reads slower.
    """

    def __init__(self) -> None:
        self.blocks: List[List[float]] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> int:
        """Take a block if one is due (or ``force``); returns the latest block."""
        if force or time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.blocks.append([calibration_loop() for _ in range(CALIBRATION_LOOPS)])
            self._last = time.perf_counter()
        return len(self.blocks) - 1

    def scale(self, block: int) -> float:
        """Factor for a region between block ``block`` and the next one."""
        return REFERENCE_LOOP_S / statistics.median(self.blocks[block] + self.blocks[block + 1])


def timed_setup(again: Callable[[], float], speed: HostSpeed) -> Tuple[float, int]:
    """One set-up between two forced calibration blocks: (seconds, block before)."""
    block = speed.sample(force=True)
    seconds = again()
    speed.sample(force=True)
    return seconds, block


def measure(runner: Runner, ops: List[Op], seconds: float, again: Callable[[], float],
            speed: HostSpeed) -> Dict:
    """Replay the period until the timed calls add up to ``seconds``.

    Every call's wall time is scaled by ``speed`` (see HostSpeed); an op's
    time is the median of its scaled calls.  Set-up is repeated by
    ``again`` at even steps of the timed total, so that its median, too,
    samples the whole run.
    """
    calls: List[Tuple[int, float, int]] = []  # (op index, wall, block before)
    setups: List[Tuple[float, int]] = []
    total = 0.0
    k = 0
    while total < seconds:
        if total >= (len(setups) + 1) * seconds / SETUP_REPEATS:
            setups.append(timed_setup(again, speed))
        op = ops[k % len(ops)]
        block = speed.sample()
        out = runner.execute(op)
        total += out.wall
        calls.append((op.index, out.wall, block))
        k += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample(force=True)
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(timed_setup(again, speed))
    scaled: Dict[int, List[float]] = {}
    raw: Dict[int, List[float]] = {}
    for index, wall, block in calls:
        scaled.setdefault(index, []).append(wall * speed.scale(block))
        raw.setdefault(index, []).append(wall)
    op_s = {i: statistics.median(v) for i, v in scaled.items()}
    op_raw_s = {i: statistics.median(v) for i, v in raw.items()}
    items = sum(ops[i].items for i in op_s)
    return {
        "op_s": op_s, "op_raw_s": op_raw_s, "setups": setups,
        # One call of each op, so the rate does not depend on where the run stopped.
        "items_per_s": items / sum(op_s.values()),
        "raw_items_per_s": items / sum(op_raw_s.values()),
        "calls": k, "peak_mb": peak_mb,
        "loop_s": statistics.median(t for b in speed.blocks for t in b),
    }


def trace_run(runner: Runner, ops: List[Op], seconds: float, span_path: str) -> Tuple[Dict, List[str]]:
    """Per-layer metrics of one period, averaged over whole periods.

    Each op runs untraced and then traced, so ``trace.overhead_s`` compares
    the same calls.  Periods run until the calls of both kinds add up to
    ``seconds``, and at least two run; every count an op gives must repeat
    exactly in the next period.
    """
    from tracer import Tracer

    tracer = Tracer()
    sums: Dict[str, float] = {}
    seen: Dict[int, Dict] = {}
    problems: List[str] = []
    spent = 0.0
    periods = 0

    while periods < 2 or spent < seconds:
        for op in ops:
            plain = runner.execute(op)
            tracer.install()
            try:
                first = tracer.begin_op(runner.executions)
                out = runner.execute(op)
            finally:
                tracer.uninstall()
            layers = tracer.end_op(first, out.wall)
            spent += plain.wall + out.wall
            counts = {k: v for k, v in layers.items() if k in COUNT_METRICS}
            if seen.setdefault(op.index, counts) != counts:
                problems.append(f"op {op.index}: counts differ between traced runs")
            layers["trace.overhead_s"] = out.wall - plain.wall
            layers["trace.wall_s"] = out.wall
            for key, value in layers.items():
                if key == "labeling.max_label":
                    sums[key] = max(sums.get(key, 0), value)
                else:
                    sums[key] = sums.get(key, 0) + value
        periods += 1
    tracer.dump(span_path)
    metrics = {}
    for key in TIME_METRICS:
        metrics[key] = {"value": sums.get(key, 0.0) / periods, "unit": "s"}
    for key in COUNT_METRICS:
        total = sums.get(key, 0)
        value = total if key == "labeling.max_label" else total // periods
        unit = "B" if key == "graphstore.json_bytes" else "count"
        metrics[key] = {"value": int(value), "unit": unit}
    accounted = sum(v for k, v in sums.items()
                    if k.endswith("_s") and not k.startswith("trace."))
    if abs(accounted - sums.get("trace.wall_s", 0.0)) > 1e-6 * max(1, len(ops) * periods):
        problems.append("layer self times and cli.other_s do not add up to the traced wall time")
    return {"metrics": metrics, "periods": periods, "missing": tracer.missing}, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcreal", "cli.py")):
        print(f"no tcreal sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Debug assertions make validate() quadratic; the numbers assume them off.
    debug_env = os.environ.pop("TCREAL_DEBUG_ASSERT", None)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    available = mem_available()
    cap = tc_cap(available)

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        speed = HostSpeed()
        block = speed.sample(force=True)
        seconds, cli, ops, ctx = setup(workload, args.seed, work, cap)
        speed.sample(force=True)
        setups = [(seconds, block)]
        runner = Runner(cli, workload, ctx)
        if args.trace:
            os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
            span_path = os.path.join(HERE, "_out", f"spans-{args.workload}-{args.seed}.csv.gz")
            traced, problems = trace_run(runner, ops, args.seconds, span_path)
        else:
            timed = measure(runner, ops, args.seconds,
                            lambda: setup(workload, args.seed, work, cap)[0], speed)
            setups += timed["setups"]
            problems = []
        failed, messages = runner.check()
        problems += messages
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = runner.executions
    env = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "mem_available_mb": available // 2**20,
        "seed": args.seed, "seconds": args.seconds,
        "TCREAL_DEBUG_ASSERT": "unset" if debug_env is None else f"unset (was {debug_env!r})",
        "is_tc_cap_n": cap, "loop": "closed, 1 caller",
    }
    print(f"# workload {workload.name}: {workload.why}")
    print("# env " + json.dumps(env))
    print("# shares " + json.dumps(shares(runner.ran)))
    for problem in problems:
        print("# FAIL " + problem)
    print(f"# fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if args.trace:
        metrics = traced["metrics"]
        for name in traced["missing"]:
            print(f"# note: {name} is not in the package, so it is not traced")
        print(f"# per-layer metrics per period of {len(ops)} ops, "
              f"averaged over {traced['periods']} periods; spans in "
              f"{os.path.relpath(span_path, ROOT)}")
    else:
        timed_ops = [op for op in ops if op.index in timed["op_s"] and op.timed]
        op_s = [timed["op_s"][op.index] for op in timed_ops]
        raw_s = [timed["op_raw_s"][op.index] for op in timed_ops]
        setup_s = [t * speed.scale(b) for t, b in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "call_s_p50": {"value": statistics.median(op_s), "unit": "s"},
            "call_s_p90": {"value": percentile(op_s, 0.9), "unit": "s"},
            "items_per_s": {"value": timed["items_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": timed["peak_mb"], "unit": "MB"},
        }
        print(f"# {timed['calls']} calls of {len(ops)} distinct ops; the percentiles are "
              f"over the median call of each of {len(op_s)} ops; times are scaled to a "
              f"{REFERENCE_LOOP_S * 1e3:g} ms calibration loop (median here "
              f"{timed['loop_s'] * 1e3:.3f} ms over {len(speed.blocks)} blocks)")
        for key, m in metrics.items():
            alias = f" ({workload.rate})" if key == "items_per_s" else ""
            print(f"# {key}{alias} = {m['value']:.6g} {m['unit']}")
        print(f"# unscaled: setup_s = {statistics.median(t for t, _ in setups):.6g} s, "
              f"call_s_p50 = {statistics.median(raw_s):.6g} s, call_s_p90 = "
              f"{percentile(raw_s, 0.9):.6g} s, items_per_s = {timed['raw_items_per_s']:.6g} 1/s")
        for verb in sorted({op.argv[0] for op in timed_ops}):
            own = [timed["op_s"][op.index] for op in timed_ops if op.argv[0] == verb]
            print(f"# {verb}_s_p50 = {statistics.median(own):.6g} s, {verb}_s_p90 = "
                  f"{percentile(own, 0.9):.6g} s over {len(own)} {verb} ops")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
