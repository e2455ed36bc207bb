"""Every DRAM timing row of a real pipeline run against the oracle.

The pipeline serves each layer window by window, each window as up to
four cycle-sorted sides (data, over-fetch, MAC, VN) through
``DramSim.simulate_fast_batch_parts``, from the open rows the layer's
previous window left. Here every layer's windows are replayed through
the event-driven oracle as one stream: the windows' merged sides,
concatenated. The run serves every window (the periodic shortcut off);
the default run, which skips a batched layer's image windows 3..N-1,
must then give the same rows.
"""

from collections import OrderedDict

import pytest

from repro.accel.trace import BlockStream

from repro.core.config import npu_config
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.protection import make_scheme, metadata_model
from tests.dram import oracle
from tests.streams import merge_sides

CASES = [
    ("server", "resnet18", "sgx-64b"),
    ("edge", "mobilenet@b4", "mgx-64b"),
    ("edge", "gpt2@s128", "mgx-64b"),
    ("edge", "lenet", "sgx-512b"),
]


@pytest.mark.parametrize("npu,workload,scheme", CASES,
                         ids=[case[1] for case in CASES])
def test_timing_rows_match_oracle(npu, workload, scheme, monkeypatch):
    shortcut = Pipeline(npu_config(npu)).run(get_workload(workload),
                                             make_scheme(scheme))
    monkeypatch.setattr(metadata_model, "PERIODIC_SHORTCUT", False)
    pipeline = Pipeline(npu_config(npu))
    dram = pipeline.dram
    # One entry per walk state, i.e. per timing row: the row's windows.
    served = OrderedDict()
    entries = []
    serve = dram.simulate_fast_batch_parts

    def spy(part_lists, states):
        results = serve(part_lists, states)
        entries.extend(part_lists)
        for parts, state in zip(part_lists, states):
            served.setdefault(id(state), (state, []))[1].append(
                merge_sides(parts))
        return results

    dram.simulate_fast_batch_parts = spy
    run = pipeline.run(get_workload(workload), make_scheme(scheme))

    assert len(served) == len(run.layers)
    assert run.layers == shortcut.layers
    assert any(len(side) for parts in entries for side in parts[1:])
    for (state, windows), timing in zip(served.values(), run.layers):
        got = dram.finish(state)
        assert timing.dram_cycles == got.busy_cycles
        ref = oracle.simulate(dram.config, dram.freq_ghz,
                              BlockStream.concat(windows))
        assert got.requests == ref.requests
        assert got.row_hits == ref.row_hits
        assert got.row_misses == ref.row_misses
        assert got.per_channel_requests == ref.per_channel_requests
        assert got.busy_cycles == pytest.approx(ref.busy_cycles, rel=1e-9)
