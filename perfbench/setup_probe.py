"""Set-up time of cavkerr in a fresh interpreter: import the package, load
a config and build the system from it.  Prints the seconds taken.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG.yaml
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    from cavkerr import cli

    cli.build_system(cli.load_config(sys.argv[1]))
    print(repr(time.perf_counter() - t0))
