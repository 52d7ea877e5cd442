"""Command-line entry of the benchmark; run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a human-readable report, then one JSON object as the last line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits non-zero, printing no result, when the simulator cannot be run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import add_source_path  # noqa: E402

if __name__ == "__main__":
    try:
        add_source_path()
    except ImportError as exc:
        sys.exit(f"perfbench: {exc}")
    from perfbench.driver import main

    sys.exit(main())
