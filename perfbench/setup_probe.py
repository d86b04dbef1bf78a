"""Time the benchmark's import of su3bench and the first flop_table call in a
fresh interpreter.

run.py starts this script several times per run, spread over the measured
stretch, so that set-up time is a median over the host's states, and the
computed counts are compared between separate processes. Prints one JSON
object: {"seconds": ..., "counts": {...}}.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import layers  # noqa: E402  (imports su3bench and the workloads)
import su3bench  # noqa: E402

su3bench.flop_table()
seconds = time.perf_counter() - _START
print(json.dumps({"seconds": seconds, "counts": layers.computed_counts()}))
