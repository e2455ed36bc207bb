"""The benchmark's three workloads: which grid cells each one runs.

A workload is a fixed list of ``(npu, workload spec)`` cells plus the
way the evaluation service is built for it.  The seed only permutes the
order in which the cells are submitted, never which cells run, so the
simulated records (and their digests) are the same for every seed.

This module imports ``repro`` lazily: the orchestrator in ``run.py``
only needs the workload names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

NAMES = ("paper_grid", "zoo_b16", "decode_kv")

#: Transformer cells of ``decode_kv``: the gpt2 decode step at four KV
#: cache lengths plus the two encoder-only transformers.
DECODE_SPECS = ("gpt2@s512", "gpt2@s1024", "gpt2@s2048", "gpt2@s4096",
                "bert_base", "vit_b16")

Cell = Tuple[str, str]

#: Every workload runs with one job, so no workload exercises the
#: process pool.  With two pool workers the ``paper_grid`` wall time
#: spread 13% (IQR / median over five seeds) on a 2-core host, because
#: the seeded order decides how evenly its few large cells balance over
#: the workers; serially it spread 6%.  ``zoo_b16`` would also double
#: its ~3 GiB peak with two workers.
JOBS = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``store`` runs the grid on a cold ``ResultStore`` in a fresh temp
    directory; ``reread`` then re-requests the whole grid through a
    second, fresh service from that store (the path of re-running
    ``repro sweep``).
    """

    name: str
    cells: Tuple[Cell, ...]
    store: bool
    reread: bool


def get(name: str) -> Workload:
    """The workload called ``name`` (imports ``repro``)."""
    from repro.models.zoo import WORKLOADS

    if name == "paper_grid":
        # Fig. 5/6: both NPUs x the 13 Section IV-A workloads at batch 1.
        cells = tuple((npu, w) for npu in ("server", "edge")
                      for w in WORKLOADS)
        return Workload(name, cells, store=True, reread=True)
    if name == "zoo_b16":
        cells = tuple(("server", f"{w}@b16") for w in WORKLOADS)
        return Workload(name, cells, store=True, reread=False)
    if name == "decode_kv":
        cells = tuple((npu, spec) for npu in ("server", "edge")
                      for spec in DECODE_SPECS)
        return Workload(name, cells, store=False, reread=False)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def submission_order(cells: Tuple[Cell, ...], seed: int,
                     rep: int) -> List[Cell]:
    """The cells in the order repetition ``rep`` of seed ``seed`` submits
    them: a deterministic permutation, different for every repetition so
    that a run's median averages over several orders."""
    order = list(cells)
    random.Random(f"{seed}:{rep}").shuffle(order)
    return order


def cell_id(cell: Cell) -> str:
    """``npu:spec`` — the key of a cell in the reference digests (and the
    key the fault plane draws with at the ``cell`` site)."""
    npu, spec = cell
    return f"{npu}:{spec}"
