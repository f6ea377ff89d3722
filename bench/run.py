"""End-to-end benchmark of the `segdial` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload inputs are generated from the
seed (`workloads.py`); the program sees only those files. Every workload
pushes its images through the same closed loop of CLI subcommands (curate,
parse, transform, match, evaluate), each a fresh interpreter started the way
the installed `segdial` script starts, by this one driver after the previous
process ended; only `curate` runs threads (`--jobs 2`).

`--trace 0` repeats the loop while another pass still ends within S seconds
(at least twice) and prints the end-to-end metrics, medians over passes:
images per second through the loop, the wall time of the subcommands that
build the dataset (`prepare_s`) and of those that score it (`score_s`), the
highest child peak RSS (from `os.wait4`), and `setup_s`, the median over the
pass's processes of the time from spawning the interpreter to the end of its
`import segdial.cli`. Times are scaled to a fixed speed of a reference task
run alongside them (see REFERENCE below); the unscaled values go to stderr.

`--trace 1` runs the loop once as processes, then alternates untraced and
traced in-process passes through `segdial.cli.main` the same way (at least
two of each) and prints the per-layer metrics of `tracing.py`, medians over
the traced passes, plus the tracing overhead. Counts must repeat exactly
across traced passes, and the traced outputs must be byte-identical to the
process outputs.

Every output file is hashed after every pass and must not change between
passes; for the default seed the digests must also equal `digests.json`
(`record_digests.py` rewrites it). The independent checks of `checks.py` run
once, outside the timed region. The last line of stdout is one JSON object:
correct, attempted, failed, metrics, where `failed` counts subcommand runs
and checks that failed. Any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
DEFAULT_SEED = 0
MIN_PASSES = 2
LAUNCH_TIMEOUT_S = 60  # a subcommand that hangs is killed and counts as failed
# The reference task: a fresh interpreter importing numpy and scipy.optimize,
# the same kind of work as the start of every subcommand (process start,
# loading shared libraries, page faults) and none of it code of this
# repository. On a shared host the speed of such work drifts by up to ~40%
# within minutes, so each pass runs the task before every other subcommand and
# its times are scaled by REFERENCE_S over the task's mean time in that pass:
# they read as seconds on a host where the task takes REFERENCE_S. Changing
# REFERENCE or REFERENCE_S changes every reported time.
REFERENCE = "import numpy, scipy.optimize"
REFERENCE_S = 0.75
# The scoring subcommands; the others build the dataset. Each end-to-end
# time sums several processes: the time of one process spread too widely
# across runs on a shared host to gate on.
SCORING = ("match", "evaluate_inst", "evaluate_sem")


@dataclass(frozen=True)
class Step:
    key: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def pipeline(wl: workloads.Workload, out: Path) -> list[Step]:
    f = {k: str(v) for k, v in wl.files.items()}
    o = lambda name: str(out / name)  # noqa: E731
    steps = [
        Step("curate", ("curate", "--input", f["gt"], "--task", "qa", "--client", "fixture",
                        "--fixture-dir", f["responses"], "--jobs", "2", "--out", o("jobs.jsonl"),
                        *wl.curate_flags), ("jobs.jsonl", "jobs.dropped.jsonl")),
        Step("parse", ("parse", "--responses", f["responses"], "--annotations", f["gt"], "--task", "qa",
                       "--out", o("records.jsonl")), ("records.jsonl", "records.diagnostics.jsonl")),
        Step("transform_sem", ("transform", "--in", o("records.jsonl"), "--to", "sid-semseg",
                               "--annotations", f["gt"], "--out", o("sid_semseg.jsonl"),
                               "--merged-out", o("merged.jsonl")), ("sid_semseg.jsonl", "merged.jsonl")),
    ]
    if wl.name == "dialogue_build":  # the text-only path belongs to this workload alone
        steps += [
            Step("transform_pure", ("transform", "--in", o("records.jsonl"), "--to", "pure",
                                    "--out", o("pure.jsonl")), ("pure.jsonl",)),
            Step("split", ("split", "--in", o("records.jsonl"), "--train-out", o("train.jsonl"),
                           "--eval-out", o("eval.jsonl")), ("train.jsonl", "eval.jsonl")),
        ]
    steps += [
        Step("match", ("match", "--preds", f["preds"], "--gt", f["gt"], "--out", o("assign.jsonl")),
             ("assign.jsonl",)),
        Step("evaluate_inst", ("evaluate", "--gt", f["gt"], "--preds", f["preds"], "--mode", "inst",
                               "--out", o("inst.json")), ("inst.json",)),
        Step("evaluate_sem", ("evaluate", "--gt", f["gt"], "--preds", f["sem_preds"], "--mode", "sem",
                              "--out", o("sem.json")), ("sem.json",)),
    ]
    return steps


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEGDIAL_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Starts a subcommand the way the installed `segdial` script does, after
# noting when the import finished (perf_counter is the system-wide
# monotonic clock, so the parent can subtract its own start time).
LAUNCHER = (
    "import sys, time\n"
    "from segdial.cli import main\n"
    "open(sys.argv[1], 'w').write(repr(time.perf_counter()))\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


@dataclass(frozen=True)
class Launch:
    wall: float  # spawn to exit, seconds
    setup: float  # spawn to the end of `import segdial.cli`, seconds
    rss_mb: float  # peak resident set of the child
    code: int


def launch(argv, out: Path) -> Launch:
    stamp = out / "import_done.txt"
    stamp.unlink(missing_ok=True)
    with open(out / "stderr.log", "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(stamp), *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.is_file() else math.nan
    return Launch(wall, setup, usage.ru_maxrss / 1024.0, proc.returncode)


def digests(out: Path, steps: list[Step]) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).is_file() else "missing"
        for step in steps
        for name in step.outputs
    }


class Ledger:
    """Subcommands attempted, and the subcommand runs or checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[str] = set()

    def fail(self, key: str, message: str) -> None:
        self.failed.add(key)
        print(f"FAIL {key}: {message}", file=sys.stderr)

    def compare(self, what: str, got: dict, want: dict) -> None:
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                self.fail(f"{what} {name}", f"digest {got.get(name)} != {want.get(name)}")


def reference_seconds() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], stdin=subprocess.DEVNULL, check=True, cwd=ROOT,
                   timeout=LAUNCH_TIMEOUT_S)
    return perf_counter() - start


@dataclass(frozen=True)
class Pass:
    launches: dict[str, Launch]
    reference: float  # mean time of the reference task, run before every other launch


def process_pass(steps, out: Path, ledger: Ledger, reference: bool) -> Pass:
    launches, refs = {}, []
    for n, step in enumerate(steps):
        if reference and n % 2 == 0:
            refs.append(reference_seconds())
        ledger.attempted += 1
        launches[step.key] = run = launch(step.argv, out)
        if run.code != 0:
            ledger.fail(f"pass {ledger.attempted} {step.key}", f"exited {run.code}; see {out / 'stderr.log'}")
    return Pass(launches, statistics.fmean(refs) if refs else math.nan)


def inprocess_pass(steps, cli_main, ledger: Ledger, tracer=None) -> float:
    start = perf_counter()
    sink = io.StringIO()
    for step in steps:
        ledger.attempted += 1
        span = tracer.span(f"cli.{step.key}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(list(step.argv))
        if code != 0:
            ledger.fail(f"pass {ledger.attempted} {step.key}", f"in-process run returned {code}")
        sink.seek(0)
        sink.truncate()
    return perf_counter() - start


def _room_for_another(start: float, done: int, seconds: float) -> bool:
    """True while one more pass of the mean length so far still ends within `seconds`."""
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def end_to_end(steps, wl, out: Path, seconds: float, ledger: Ledger, reference: dict | None) -> dict:
    passes: list[Pass] = []
    first = None
    start = perf_counter()
    while len(passes) < MIN_PASSES or _room_for_another(start, len(passes), seconds):
        passes.append(process_pass(steps, out, ledger, reference=True))
        got = digests(out, steps)
        if first is None:
            first = got
            if reference is not None:
                ledger.compare("default-seed digests", got, reference)
        else:
            ledger.compare(f"rerun {len(passes)}", got, first)
    checks.verify(wl, out, ledger)

    rows = []  # per pass: raw values, and the scale that takes them to the reference speed
    for p in passes:
        runs = p.launches
        prepare = sum(r.wall for k, r in runs.items() if k not in SCORING)
        score = sum(runs[k].wall for k in SCORING)
        rows.append((REFERENCE_S / p.reference, {
            "images_per_s": wl.image_count / (prepare + score),
            "prepare_s": prepare,
            "score_s": score,
            "setup_s": statistics.median(r.setup for r in runs.values()),
            "peak_rss_mb": max(r.rss_mb for r in runs.values()),
        }))
    print("raw passes:", json.dumps([dict(raw, reference_s=p.reference) for (_, raw), p in zip(rows, passes)]),
          file=sys.stderr)
    med = statistics.median
    return {
        "images_per_s": (med(raw["images_per_s"] / scale for scale, raw in rows), "1/s"),
        "prepare_s": (med(raw["prepare_s"] * scale for scale, raw in rows), "s"),
        "score_s": (med(raw["score_s"] * scale for scale, raw in rows), "s"),
        "peak_rss_mb": (med(raw["peak_rss_mb"] for _, raw in rows), "MB"),
        "setup_s": (med(raw["setup_s"] * scale for scale, raw in rows), "s"),
    }


def traced(steps, wl, out: Path, seconds: float, ledger: Ledger, reference: dict | None) -> dict:
    process_pass(steps, out, ledger, reference=False)
    want = digests(out, steps)
    if reference is not None:
        ledger.compare("default-seed digests", want, reference)
    checks.verify(wl, out, ledger)

    sys.path.insert(0, str(SRC))
    import segdial
    import segdial.cli

    plain, traced_walls, times, counts = [], [], [], []
    start = perf_counter()
    while len(traced_walls) < MIN_PASSES or _room_for_another(start, len(traced_walls), seconds):
        plain.append(inprocess_pass(steps, segdial.cli.main, ledger))
        ledger.compare("in-process vs process", digests(out, steps), want)
        tracer = tracing.Tracer(run=len(traced_walls) + 1)
        with tracing.instrument(tracer, segdial):
            traced_walls.append(inprocess_pass(steps, segdial.cli.main, ledger, tracer))
        ledger.compare("traced vs process", digests(out, steps), want)
        t, c = tracing.pass_metrics(tracer)
        times.append(t)
        if counts and c != counts[0]:
            changed = sorted(k for k in c if c[k] != counts[0][k])
            ledger.fail("trace counts", f"counts differ between traced passes: {changed}")
        counts.append(c)

    metrics = {k: (v, "ratio" if k.startswith("share.") else "s") for k, v in tracing.median_times(times).items()}
    metrics.update({k: (v, "ratio" if k in tracing.RATIO_METRICS else "count") for k, v in counts[0].items()})
    # each traced pass follows its untraced twin, so their difference is the
    # least affected by the host's speed drifting during the run
    metrics["trace.overhead_s"] = (statistics.median(t - p for t, p in zip(traced_walls, plain)), "s")
    print(f"traced passes: {len(traced_walls)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "segdial" / "cli.py", checks.ORACLES) if not p.is_file()]
    if missing:
        print(f"run from a segdial checkout: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.generate(args.workload, args.seed, work / "in")
    out = work / "out"
    out.mkdir()
    steps = pipeline(wl, out)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH / "digests.json").read_text())[args.workload]
    ledger = Ledger()
    measure = traced if args.trace else end_to_end
    metrics = measure(steps, wl, out, args.seconds, ledger, reference)
    checks.verify_ap_oracle(args.workload, args.seed, work / "mini", launch, ledger)
    failed = len(ledger.failed)
    if failed == 0:
        shutil.rmtree(work)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
