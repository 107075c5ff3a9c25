"""Record reference output digests for the benchmark's correctness check.

    python3 perfbench/record_reference.py [FIRST_SEED LAST_SEED]

Runs one untraced pass of every stream and CLI session for each workload
and seed (seeds 0-63 by default) and writes ``reference.json``.  Run it only
on a commit whose outputs are known to be right: the benchmark counts every
later difference as a failed session.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run


def digests(workload: str, seed: int) -> dict[str, str]:
    run._import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    checker = run.Checker(workload, seed, wl.seeded_outputs)
    checker.reference = None
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-",
                                     dir=run.ROOT) as tmp:
        run.one_pass(wl, Path(tmp), checker)
    if checker.failed:
        sys.exit(f"error: {workload} seed {seed}: {checker.errors}")
    return dict(sorted(checker.seen.items()))


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 \
        else (0, 63)
    run._import_program()
    from workloads import WORKLOADS

    jobs = {}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        for name, make in WORKLOADS.items():
            seeded = make(0).seeded_outputs
            for seed in range(first, last + 1) if seeded else [0]:
                key = str(seed) if seeded else "any"
                jobs[name, key] = pool.submit(digests, name, seed)
        out: dict[str, dict[str, dict[str, str]]] = {}
        for (name, key), job in jobs.items():
            out.setdefault(name, {})[key] = job.result()
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
