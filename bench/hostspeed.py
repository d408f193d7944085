"""Host-speed reference for the end-to-end times.

The CPU speed a benchmark process gets on a shared host wanders over tens
of seconds, by as much as a factor of 1.6 (see README.md).  A fixed kernel
that does not use calabi_lab is timed right after every operation, for a
share of that operation's latency.  Its mean time over a run, against its
time on the reference host (``REF_KERNEL_MS``), says how fast the host ran
during the run; the end-to-end times are scaled by that ratio, so they read
as times on the reference host.  The raw times stay in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Mean time of one kernel call on the 2-vCPU VM the baseline comes from
# (Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread), over 60 s.
REF_KERNEL_MS = 1.40
SHARE = 0.1  # reference time spent per unit of operation time


class HostSpeed:
    """Times the reference kernel alongside a run's operations."""

    def __init__(self, n_ops: int) -> None:
        rng = np.random.default_rng(12345)
        a = rng.normal(size=(40, 40))
        self._sym = a + a.T
        self._t4 = rng.normal(size=(6, 6, 6, 6))
        self._stack = rng.normal(size=(8, 6, 6, 6, 6))
        self._words = [str(i) for i in range(2000)]
        self.calls = 0
        self.total_ms = 0.0
        self.kernel_ms = [[] for _ in range(n_ops)]  # per operation, per pass

    def _kernel(self) -> float:
        """A mix of interpreter work, many small numpy calls and dense
        eigensolves, as the operations have."""
        acc = 0
        for w in self._words:
            acc += len(w) * 3 + hash(w) % 7
        seen = {w: i for i, w in enumerate(self._words)}
        acc += sum(seen.values()) % 11
        for _ in range(2):
            acc += float(np.linalg.eigh(self._sym)[0][0])
        for _ in range(40):
            acc += float(np.einsum("ijkl,aijkl->a", self._t4, self._stack)[0])
        return acc

    def sample(self, op: int, op_ms: float) -> None:
        """Run the kernel for SHARE of operation `op`'s latency, at least
        once, and keep its mean time per call."""
        budget = SHARE * op_ms
        spent, calls = 0.0, 0
        while spent < budget or not calls:
            t = time.perf_counter()
            self._kernel()
            spent += (time.perf_counter() - t) * 1e3
            calls += 1
        self.calls += calls
        self.total_ms += spent
        self.kernel_ms[op].append(spent / calls)

    def factor(self) -> float:
        """Reference-host time over this run's time for the same work."""
        return REF_KERNEL_MS / (self.total_ms / self.calls)
