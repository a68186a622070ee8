"""Run ``wirespec serve ARGS...`` and print its CPU seconds when stopped.

The benchmark starts this with its own interpreter and the checkout's
``src`` on ``PYTHONPATH``, reads the "listening on port N" line from
stderr, and stops it with SIGTERM.  The last stdout line is then
``iut_cpu_s <seconds>``: CPU spent after start-up, serving connections.
"""

import signal
import sys
import time

from wirespec.cli import main


def _stop(signum, frame):
    raise SystemExit(0)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    start = time.process_time()
    try:
        main(["serve", *sys.argv[1:]])
    finally:
        print(f"iut_cpu_s {time.process_time() - start!r}", flush=True)
