"""Time one cold start of a workload: importing the program and loading its registries.

Run as ``python3 perfbench/coldstart.py <workload>``; prints the seconds
the import and registry loading took in this fresh process, scaled to
the reference host (see ``perfbench/reference.py``).  The runner starts
several of these and reports their median as part of ``setup_s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    from perfbench.workloads import make_workload

    make_workload(sys.argv[1], 0)
    elapsed = time.perf_counter() - started
    from perfbench.reference import host_factor, kernel_seconds

    print(elapsed * host_factor(kernel_seconds(), kernel_seconds()))


if __name__ == "__main__":
    main()
