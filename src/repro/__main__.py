"""``python -m repro``: the command-line entry point.

It also sets the process heap policy (``docs/architecture.md``, *Process
heap policy*): once the CLI and everything it imports are loaded, the cyclic
collector stops rescanning them (``gc.freeze``) and collects the youngest
generation less often.  Library code never touches ``gc``.
"""

import gc
import sys

from repro.cli import main

GEN0_THRESHOLD = 10_000
"""Allocations between young-generation collections (CPython's default: 700)."""

if __name__ == "__main__":
    gc.freeze()
    gc.set_threshold(GEN0_THRESHOLD, *gc.get_threshold()[1:])
    sys.exit(main())
