"""Trace-driven DRAM timing model (Ramulator substrate).

Models a multi-channel DDR memory at the granularity the evaluation
needs: per-channel data-bus occupancy plus row-buffer hit/miss behaviour
per bank. :meth:`repro.dram.simulator.DramSim.simulate_fast_batch_parts`
is the one production path: it walks the merge of each layer's
cycle-sorted traffic sides (data, over-fetch, MAC, VN) in issue order,
window by window from the open rows a ``WalkState`` carries, counts
requests and row conflicts per channel, and turns them into busy
cycles.
An event-driven walk of the same semantics lives in ``tests/dram`` as
the oracle the model is checked against.
"""

from repro.dram.timing import DramConfig, DramTiming
from repro.dram.mapping import AddressMapping
from repro.dram.simulator import DramSim, DramResult

__all__ = [
    "DramConfig",
    "DramTiming",
    "AddressMapping",
    "DramSim",
    "DramResult",
]
