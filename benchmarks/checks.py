"""The exception a workload's output check raises.

Kept apart from ``harness`` so that a workload module, imported by
``setup_probe.py`` in a fresh interpreter, loads nothing of the
benchmark's machinery while its set-up is being timed.
"""


class CheckFailed(Exception):
    """An op finished but its output is wrong."""
