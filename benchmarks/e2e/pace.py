"""How fast the machine runs Python right now, measured between operations.

The box the benchmark runs on shares its host: for minutes at a time the
same work takes 1.5-3x longer, and CPU time slows exactly as wall time
does, so neither clock alone tells the program's speed.  A :class:`Pace`
times a fixed pure-Python workload (floats, dicts, strings and a sort,
like the program's own mix) each time the benchmark is idle between two
operations, and scales the run's timings to the speed at which that
workload takes :data:`REFERENCE_S`.  The probe runs only while no
program process is working, so it never competes with one for a CPU.
"""

from __future__ import annotations

import math
import statistics
import time

#: The probe's time on the reference box (2-vCPU Intel Xeon VM at
#: 2.1 GHz) when its host is quiet: 40-45 ms.  A scaled timing reads as
#: if the machine ran at that speed.
REFERENCE_S = 0.040


def _work() -> int:
    table: dict[int, str] = {}
    total = 0.0
    for i in range(70_000):
        x = i * 1e-3
        total += math.sin(x) * math.cos(x)
        table[(i * 7919) % 4093] = f"{i}:{total:.3f}"
    return len(sorted(table.values()))


class Pace:
    """Probe timings of one run, and the scale they give its timings."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Multiply a duration by this (divide a rate) to get it at reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def describe(self) -> str:
        return (
            f"machine pace: {len(self.samples)} probes, mean {1000 * statistics.fmean(self.samples):.1f} ms "
            f"(reference {1000 * REFERENCE_S:.1f} ms), so timings are scaled by {self.scale():.3f}"
        )
