"""One set-up sample: import pathkl, load and resolve the given configs.

Prints the CLOCK_MONOTONIC reading taken just before the first estimator
call would run; the parent subtracts the reading it took before starting
this interpreter.

    python3 perfbench/probe.py CONFIG.json [CONFIG.json ...]
"""

import sys
import time

from pathkl import cli

for path in sys.argv[1:]:
    cli.resolve_config(cli.load_config(path))
print(repr(time.monotonic()))
