"""Peak memory of one sweep cell, measured in a fresh interpreter.

The derived server ``fasterrcnn@b16`` cell is the zoo's largest: its
probes simulate fasterrcnn in full at batch 1, 2 and 3. Each probe is
reduced to its record and integers before the next one runs, and a
cell serves each layer in cycle windows of at most ``WINDOW_BLOCKS``
blocks, every scheme finishing a window (and dropping its shared MAC
traffic) before the next is expanded, so the peak is one probe's trace
columns plus one window's streams, whatever the layer's size. The fully
simulated ``alexnet@b16`` cell (derivation off) pins the same for one
batched model run, ``gpt2@s4096`` for the zoo's longest metadata
streams, and ``alexnet@b64`` and ``fasterrcnn@b64`` the budget every
zoo cell must fully simulate under. Each pin is the measured peak plus
20-25 MiB: enough for another interpreter's import footprint, not for a
layer's expansion kept alive to the cell's end.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   os.pardir, "src"))

#: 85 MiB. Measured 60 MiB on a 2-vCPU Xeon host since each layer is
#: served in cycle windows. Earlier: 201-203 MiB while each layer's
#: sorted stream, over-fetch side and metadata sides were alive whole
#: (a coarse unit's over-fetch a small side of the shared sorted stream,
#: metadata traffic in per-class numpy sides); 301 MiB while every
#: 512 B scheme re-expanded its layer with the over-fetch merged in, and
#: MAC and VN traffic were concatenated and sorted; 312-313 MiB once
#: each layer's cycle-sorted stream was merged from its ranges; 558 MiB
#: while the unsorted expansion stayed memoized next to it and the sort
#: built packed keys and an index; 851 MiB while the DRAM model
#: memoized a 24 B-per-block bank-sorted geometry on each layer stream;
#: 3157 MiB while every probe and every layer's streams stayed alive to
#: the cell's end.
FASTERRCNN_B16_PEAK_MIB = 85

#: 80 MiB. ``alexnet@b16`` with derivation off simulates all 16
#: images: measured 58 MiB on the same host since each layer is served
#: in cycle windows (307-317 MiB while whole layers were alive, and
#: image 1's metadata increment was tiled out to all 16 images up
#: front; 483-484 MiB while the 512 B schemes re-expanded each layer and
#: MAC and VN traffic were concatenated and sorted).
ALEXNET_B16_FULL_PEAK_MIB = 80

#: 70 MiB. The server ``gpt2@s4096`` cell (every scheme over the
#: longest KV-cache decode step): measured 51.6 MiB on the same host,
#: the model's range columns plus one window. 120.6 MiB when every
#: layer's whole sorted expansion stays alive to the cell's end.
GPT2_S4096_PEAK_MIB = 70

#: 90 MiB: every zoo cell fully simulates at ``@b64`` under it, as at
#: ``@b16``. Measured on the same host: 56 MiB for ``alexnet@b64`` and
#: 60-63 MiB for ``fasterrcnn@b64`` (1,097 MiB for ``alexnet@b64``
#: while whole layers were alive).
B64_FULL_PEAK_MIB = 90

#: The child reads its peak from ``VmHWM``, not ``ru_maxrss``: Linux
#: folds the pre-exec image (here, the whole test process) into the
#: child's ``ru_maxrss``, while ``VmHWM`` belongs to the child's own
#: address space.
_CELL = """
import json, sys
from repro.runner import EvalService
service = EvalService()
service.compare("server", sys.argv[1], derive=sys.argv[2] == "derive")
with open("/proc/self/status") as handle:
    hwm_kib = next(int(line.split()[1]) for line in handle
                   if line.startswith("VmHWM:"))
print(json.dumps({"derived": service.derived_hits,
                  "peak_mib": hwm_kib / 1024}))
"""


def _cell_peak(workload, mode):
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_TRACE", "REPRO_FAULTS")}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", _CELL, workload, mode],
                         env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="needs Linux /proc for the peak RSS")


@pytest.mark.slow
@needs_proc
def test_derived_fasterrcnn_b16_cell_peak_rss():
    result = _cell_peak("fasterrcnn@b16", "derive")
    assert result["derived"] == 1
    assert result["peak_mib"] < FASTERRCNN_B16_PEAK_MIB


@pytest.mark.slow
@needs_proc
def test_simulated_alexnet_b16_cell_peak_rss():
    result = _cell_peak("alexnet@b16", "simulate")
    assert result["derived"] == 0
    assert result["peak_mib"] < ALEXNET_B16_FULL_PEAK_MIB


@pytest.mark.slow
@needs_proc
def test_gpt2_s4096_cell_peak_rss():
    result = _cell_peak("gpt2@s4096", "simulate")
    assert result["derived"] == 0
    assert result["peak_mib"] < GPT2_S4096_PEAK_MIB


@pytest.mark.slow
@needs_proc
@pytest.mark.parametrize("workload", ["alexnet@b64", "fasterrcnn@b64"])
def test_simulated_b64_cell_under_the_budget(workload):
    result = _cell_peak(workload, "simulate")
    assert result["derived"] == 0
    assert result["peak_mib"] < B64_FULL_PEAK_MIB
