"""Event-driven DRAM oracle: one scalar walk of a block stream.

Requests are served in issue order (cycle, then position in the
stream). Each bank keeps an open-row register: an access to a different
row, or the bank's first access, is a row conflict. The walk also
carries the bus/bank ready times, so it reports when the last request
completes as well as how long each channel is busy.

It shares nothing with :mod:`repro.dram.simulator` beyond the config's
timing parameters, so tests can check the production counter against it.
"""

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class OracleResult:
    requests: int
    row_hits: int
    row_misses: int
    busy_cycles: float
    completion_cycle: float
    per_channel_requests: List[int]
    per_channel_busy: List[float]
    per_channel_row_misses: List[int]


def simulate(config, freq_ghz, stream) -> OracleResult:
    """Serve ``stream`` on a cold memory system described by ``config``."""
    burst = config.to_cycles(config.burst_ns, freq_ghz)
    penalty = config.to_cycles(config.timing.row_miss_penalty_ns, freq_ghz)
    nch, bpc = config.channels, config.banks_per_channel
    row_blocks = config.blocks_per_row

    block = (stream.addrs // np.uint64(config.block_bytes)).astype(np.int64)
    local = block // nch
    channels = (block % nch).tolist()
    banks = (block % nch * bpc + (local // row_blocks) % bpc).tolist()
    rows = (local // (row_blocks * bpc)).tolist()
    cycles = stream.cycles.tolist()

    requests = [0] * nch
    misses = [0] * nch
    open_row = [None] * (nch * bpc)
    bank_ready = [0.0] * (nch * bpc)
    bus_free = [0.0] * nch
    completion = 0.0
    for i in sorted(range(len(cycles)), key=cycles.__getitem__):
        ch, bank, row = channels[i], banks[i], rows[i]
        requests[ch] += 1
        service = burst
        if open_row[bank] != row:
            misses[ch] += 1
            open_row[bank] = row
            service += penalty
        ready = max(float(cycles[i]), bank_ready[bank], bus_free[ch])
        bus_free[ch] = ready + burst
        bank_ready[bank] = ready + service
        completion = max(completion, ready + service)

    # The activate phase of a miss overlaps with other banks' transfers:
    # with B banks, 1/B of each penalty surfaces as channel busy time.
    busy = [requests[c] * burst + misses[c] * (penalty / bpc)
            for c in range(nch)]
    n, n_miss = sum(requests), sum(misses)
    return OracleResult(n, n - n_miss, n_miss, max(busy), completion,
                        requests, busy, misses)
