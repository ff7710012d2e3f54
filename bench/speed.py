"""Reference work that measures how fast the machine runs right now.

On a shared 2-vCPU virtual machine (Xeon, 2.0 GHz) the host's speed changed
by up to 1.5x for tens of seconds to minutes at a time, for reasons outside
the process.  That moves every timing of a run alike, and no statistic
within a run removes it.  So the benchmark times `probe` just before each
operation and reports times scaled by REFERENCE_S / probe time, that is, at
the speed at which the probe takes REFERENCE_S.  The measured times are
reported too.

Run as a script, it prints the probe time and then the time to import
quadricheck, both measured in this fresh interpreter; this module imports
nothing else the library needs, so the import is measured in full.
"""

import gc
import time

# Probe time on an unloaded 2.0 GHz Xeon vCPU under Python 3.11.
REFERENCE_S = 0.0017
_ITERATIONS = 7500


def probe():
    """Seconds taken by a fixed mix of interpreter and big-integer work,
    the two kinds of work the pipeline does; collection is held off so the
    caller's heap cannot change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        big = 3**200
        acc = 0
        for i in range(_ITERATIONS):
            acc += (big * (i + 1)) % 1009 + i * i % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main():
    probe_s = sorted(probe() for _ in range(5))[2]
    start = time.perf_counter()
    import quadricheck  # noqa: F401

    print(probe_s, time.perf_counter() - start)


if __name__ == "__main__":
    main()
