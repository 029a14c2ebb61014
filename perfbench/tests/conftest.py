"""Put the benchmark's modules and the checkout's ``src`` on the import path.

Run with ``python -m pytest perfbench/tests`` from the root of a checkout.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
