"""Time what a user pays before the first operation, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR MODULE[,MODULE...] [CONFIG ...]

Imports the named qobserver modules from SRC_DIR, loads each CONFIG with
``qobserver.config.load_config`` and prints the seconds this took.
"""

import time

start = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
for name in sys.argv[2].split(","):
    importlib.import_module(name)
if len(sys.argv) > 3:
    from qobserver.config import load_config

    for path in sys.argv[3:]:
        load_config(path)
print(time.perf_counter() - start)
