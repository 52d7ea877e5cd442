"""End-to-end and per-layer benchmark of the Stark simulator.

Run it from the repository root::

    python3 perfbench/run.py --workload fig11_colocality --seed 1 \\
        --seconds 20 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; :mod:`perfbench.driver` documents how each metric is measured.
The benchmark imports the simulator from ``src/`` and changes none of it:
per-layer spans are recorded by wrapping the layers' public functions
from here (:mod:`perfbench.tracing`).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Raises ``ImportError`` when the checkout holds no simulator source
    (the benchmark must then fail rather than measure something else).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"simulator source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
