"""Set up one workload in a fresh interpreter, print ``ready``, then the
gauge kernel time measured in this same interpreter.

    python setup_probe.py WORKLOAD

The benchmark times each run of this script from process start to the
``ready`` line: that is the workload's set-up time.  For ``pipeline`` the
set-up is a cold ``import statorlab.cli``.  The workload modules import
only statorlab and ``checks``, so no benchmark machinery is in that time.
The second line, ``gauge <seconds>``, is the mean of ``CHILD_RUNS`` runs
of the kernel in ``gauge.py`` after ``ready``; the benchmark scales this
interpreter's set-up time by it.
"""

import importlib
import sys


def main():
    workload = sys.argv[1]
    if workload == "pipeline":
        importlib.import_module("statorlab.cli")
    else:
        importlib.import_module(f"wl_{workload}").setup(None)
    print("ready", flush=True)
    from gauge import CHILD_RUNS, SpeedGauge
    print(f"gauge {SpeedGauge().mean(CHILD_RUNS)!r}", flush=True)


if __name__ == "__main__":
    main()
