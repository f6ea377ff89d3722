"""Rewrite `digests.json`: the sha256 of every output file for the default seed.

    python3 bench/record_digests.py

Run from the root of a checkout, and only in a change that means to alter
the bytes the CLI writes; the benchmark fails any default-seed run whose
outputs differ from these digests. The outputs must pass the independent
checks before they are recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    recorded = {}
    for name in run.workloads.NAMES:
        work = run.ROOT / ".bench_work" / f"record-{name}"
        wl = run.workloads.generate(name, run.DEFAULT_SEED, work / "in")
        out = work / "out"
        out.mkdir(exist_ok=True)
        steps = run.pipeline(wl, out)
        ledger = run.Ledger()
        run.process_pass(steps, out, ledger, reference=False)
        run.checks.verify(wl, out, ledger)
        if ledger.failed:
            return 1
        recorded[name] = run.digests(out, steps)
        shutil.rmtree(work)
    (run.BENCH / "digests.json").write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
