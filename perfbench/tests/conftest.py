"""Puts the benchmark modules and the package source on sys.path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
