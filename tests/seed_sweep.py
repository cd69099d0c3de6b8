"""Seed sweep: tier-1 once per hypothesis seed k = 1..K, with random draws.

    python3 tests/seed_sweep.py [K]        # K = 6 by default

Tier-1 draws the same examples on every run (the ``tier1`` profile of
``tests/conftest.py``). Each run here loads the ``sweep`` profile instead,
which draws random examples from ``--hypothesis-seed=k`` and keeps no example
database, so nothing is written into the checkout and a failure replays from
its seed alone. Prints each seed's result line and wall time, and the output
of a seed that failed, whose counterexample is then pinned as an ``@example``
on its test. Exits 1 if any seed failed.

Pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="?", type=int, default=6,
                        help="run seeds 1..K (default 6)")
    k_max = parser.parse_args(argv).seeds
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    failed = []
    for k in range(1, k_max + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "--hypothesis-profile=sweep",
             f"--hypothesis-seed={k}", "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        lines = (done.stdout or done.stderr).strip().splitlines() or ["no output"]
        print(f"seed {k}: {lines[-1]} ({wall:.1f} s wall)", flush=True)
        if done.returncode != 0:
            failed.append(k)
            print(done.stdout, done.stderr, sep="\n", flush=True)
    print(f"{k_max - len(failed)} of {k_max} seeds passed"
          + (f"; failed: {', '.join(map(str, failed))}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
