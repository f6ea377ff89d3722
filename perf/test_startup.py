"""Start-up cost of each subcommand, and of a few library imports, and the
whole life of a few subcommand processes: a fresh interpreter, from spawn
to the end of importing the modules that subcommand loads, or of running
the import statement, or to its exit.

    pytest perf/test_startup.py --benchmark-only

The child runs with PYTHONDONTWRITEBYTECODE=1, so it neither writes nor
relies on cached bytecode that an earlier run left behind. A subcommand's
modules are those that one run of it on the dialogue_build inputs (seed 0,
mini scale) adds to `sys.modules` beyond a bare interpreter's, imported in
the order that run first loaded them, so the timings follow the code. A
`test_startup` or `test_library_import` round ends when the child reports
its imports done, so its exit is not timed there. A `test_process_lifetime`
round runs the subcommand on those inputs as the `segdial` script does, from
spawn to `wait()`, so it also times the work and the interpreter's exit.

They sit outside `tests/` so the tier-1 run (`testpaths = ["tests"]`) does
not time them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

ROUNDS = 15
# Prints the modules a run of `segdial <argv>` adds to those of a bare interpreter.
LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import json\n"
    "from segdial.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(json.dumps([m for m in sys.modules if m not in before]))\n"
)
# Runs `segdial <argv>` the way the installed script does.
SCRIPT = "import sys\nfrom segdial.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _runs(files: dict, out: Path) -> dict[str, list[str]]:
    f = {k: str(v) for k, v in files.items()}
    o = lambda name: str(out / name)  # noqa: E731
    return {
        "curate": ["curate", "--input", f["gt"], "--task", "qa", "--client", "fixture", "--fixture-dir",
                   f["responses"], "--out", o("jobs.jsonl")],
        "parse": ["parse", "--responses", f["responses"], "--annotations", f["gt"], "--task", "qa",
                  "--out", o("records.jsonl")],
        "transform_sem": ["transform", "--in", o("records.jsonl"), "--to", "sid-semseg", "--annotations", f["gt"],
                          "--out", o("sid_semseg.jsonl")],
        "transform_pure": ["transform", "--in", o("records.jsonl"), "--to", "pure", "--out", o("pure.jsonl")],
        "split": ["split", "--in", o("records.jsonl"), "--train-out", o("train.jsonl"), "--eval-out", o("eval.jsonl")],
        "match": ["match", "--preds", f["preds"], "--gt", f["gt"], "--out", o("assign.jsonl")],
        "evaluate_inst": ["evaluate", "--gt", f["gt"], "--preds", f["preds"], "--mode", "inst", "--out", o("inst.json")],
        "evaluate_sem": ["evaluate", "--gt", f["gt"], "--preds", f["sem_preds"], "--mode", "sem"],
        "report": ["report", "--in", o("inst.json")],
    }


NAMES = ("curate", "parse", "transform_sem", "transform_pure", "split", "match", "evaluate_inst",
         "evaluate_sem", "report")
# library imports that load no NumPy, timed the same way
LIBRARY_IMPORTS = ("from segdial import evaluate_ap", "from segdial import Rle")
# two short runs, in which the interpreter's own start and exit are most of the time
LIFETIMES = ("report", "split")


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, tuple[list[str], list[str]]]:
    """Each subcommand's argv and the modules it loads, from one run of each in
    dependency order, which also leaves every input a later run reads."""
    root = tmp_path_factory.mktemp("startup")
    files = workloads.generate("dialogue_build", 0, root / "in", scale="mini").files
    out = root / "out"
    out.mkdir()
    loaded = {}
    for name, argv in _runs(files, out).items():
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=_env())
        assert proc.returncode == 0, proc.stderr
        loaded[name] = (argv, json.loads(proc.stdout.splitlines()[-1]))
    return loaded


def _time_imports(benchmark, imports: str) -> None:
    """Time fresh interpreters from spawn to the end of running `imports`."""
    code = "import sys\n" + imports + "sys.stdout.write('.')\nsys.stdout.flush()\nsys.stdin.read()\n"
    children = []

    def spawn():
        child = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 env=_env(), cwd=ROOT)
        children.append(child)
        assert child.stdout.read(1) == b"."  # its imports are done

    def reap():
        child = children.pop()
        child.stdin.close()
        child.stdout.close()
        assert child.wait() == 0

    benchmark.pedantic(spawn, teardown=reap, rounds=ROUNDS, warmup_rounds=1)


@pytest.mark.parametrize("name", NAMES)
def test_startup(benchmark, runs, name):
    _, modules = runs[name]
    benchmark.extra_info["segdial_modules"] = sorted(m for m in modules if m.startswith("segdial."))
    _time_imports(benchmark, "".join(f"import {m}\n" for m in modules))


@pytest.mark.parametrize("statement", LIBRARY_IMPORTS)
def test_library_import(benchmark, statement):
    _time_imports(benchmark, statement + "\n")


@pytest.mark.parametrize("name", LIFETIMES)
def test_process_lifetime(benchmark, runs, name):
    argv, _ = runs[name]

    def run():
        child = subprocess.Popen([sys.executable, "-c", SCRIPT, *argv], stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, env=_env(), cwd=ROOT)
        assert child.wait() == 0

    benchmark.pedantic(run, rounds=ROUNDS, warmup_rounds=1)
