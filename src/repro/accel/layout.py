"""Physical address map of the 16 GB protected region.

Layout (matching the evaluation setup's 16 GB protected memory):

- ``WEIGHTS``    at 0x0_0000_0000 — all model weights, packed per layer.
- ``ACT_A``      at 0x1_0000_0000 — activation ping buffer.
- ``ACT_B``      at 0x1_8000_0000 — activation pong buffer.
- ``KV``         at 0x1_C000_0000 — KV-cache slabs (attention K^T/V
  operands), image-major: each image of a batch owns one slab holding
  every attention layer's KV state at a batch-invariant offset.
- ``METADATA``   at 0x2_0000_0000 — MAC tables, VN tables, integrity-tree
  levels (protection schemes carve this region further).

Layer ``i`` reads its ifmap from one activation buffer and writes its
ofmap to the other, so the consumer of layer ``i+1`` sees exactly the
producer's addresses — the property the inter-layer tiling analysis and
MGX-style on-chip VN generation both rely on. KV state is persistent
across decode steps (not ping-pong), so it gets its own region between
the activation buffers and the metadata tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.models.topology import Topology
from repro.utils.bitops import align_up

PROTECTED_REGION_BYTES = 16 << 30

WEIGHT_BASE = 0x0_0000_0000
ACT_A_BASE = 0x1_0000_0000
ACT_B_BASE = 0x1_8000_0000
KV_BASE = 0x1_C000_0000
METADATA_BASE = 0x2_0000_0000

_TENSOR_ALIGN = 4096

#: Default per-image slab stride quantum: one full DRAM row-set of the
#: default memory geometry (4 channels x 16 banks x 2 KiB rows). A
#: stride that is a multiple of this keeps image 0's channel, bank and
#: in-row phase and moves every row of a tensor by the same whole
#: number per image, so a batched layer's image windows repeat, DRAM
#: row conflicts included. The periodic shortcut
#: (:func:`repro.protection.metadata_model.periodic_skip`) walks three
#: images of such a layer and multiplies the third out; the analytic
#: ``@bN`` derivation (:mod:`repro.analytic`) relies on it too.
IMAGE_SLAB_ALIGN = 128 << 10


@dataclass(frozen=True)
class Region:
    """A named contiguous address region."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class AddressMap:
    """Concrete tensor addresses for one topology.

    ``image_align`` sets the per-image slab stride quantum: image ``i``
    of a batched tensor lives at ``base + i * align_up(bytes_per_image,
    image_align)``. The default aligns every image to a full DRAM
    row-set (:data:`IMAGE_SLAB_ALIGN`), which keeps each image on the
    same DRAM block/channel/bank/protection-unit phase as image 0 and
    advances its rows uniformly, so batched traffic is an exact
    per-image replica down to row-conflict counts: the gate of the
    periodic shortcut (:func:`repro.protection.metadata_model.
    periodic_skip`) checks this per layer, and the opt-in analytic
    ``@bN`` derivation per model. ``image_align=1`` packs images
    back-to-back (the pre-v4 layout); a layer whose footprint is then
    off the row-set walks every image window.
    """

    def __init__(self, topology: Topology,
                 image_align: int = IMAGE_SLAB_ALIGN):
        if image_align <= 0:
            raise ValueError(f"image_align must be positive, got {image_align}")
        self.topology = topology
        self.image_align = image_align
        self._weight_base: Dict[int, int] = {}
        self._kv_offset: Dict[int, int] = {}
        cursor = WEIGHT_BASE
        kv_cursor = 0  # offset inside one per-image KV slab
        kv_batch = 1
        for idx, layer in enumerate(topology):
            if layer.kv:
                # KV-state operands live in the KV region, image-major:
                # one slab per image holds every attention layer's KV
                # state. Layer offsets inside the slab are functions of
                # the topology alone — never of the batch size — so a
                # layer's image-0 KV addresses are identical across
                # batch sizes (the analytic ``@bN`` derivation anchors
                # cache-simulated metadata traffic on that invariance),
                # and every KV access of image ``i`` is image 0's
                # shifted by ``i * kv_image_stride``.
                self._kv_offset[idx] = kv_cursor
                kv_cursor += align_up(layer.kv_bytes_per_image,
                                      _TENSOR_ALIGN)
                kv_batch = max(kv_batch, layer.batch)
            else:
                self._weight_base[idx] = cursor
                cursor += align_up(layer.weight_bytes, _TENSOR_ALIGN)
        self.weights_end = cursor
        #: Bytes of KV state one image owns (its slab's packed extent).
        self.kv_image_bytes = kv_cursor
        #: Address distance between consecutive images' KV slabs.
        self.kv_image_stride = self.image_stride(kv_cursor)
        self.kv_end = KV_BASE + (
            self.batch_extent(kv_cursor, kv_batch) if self._kv_offset else 0)
        if cursor > ACT_A_BASE:
            raise ValueError(
                f"{topology.name}: weights ({cursor} B) overflow the weight region"
            )
        if self.kv_end > METADATA_BASE:
            raise ValueError(
                f"{topology.name}: KV caches ({self.kv_end - KV_BASE} B) "
                f"overflow the KV region")
        # The KV region is carved out of the activation space only when
        # the topology actually has KV layers; CNN-only models keep the
        # full pong extent up to the metadata base.
        act_limit = KV_BASE if self._kv_offset else METADATA_BASE
        max_act = 1
        for layer in topology:
            max_act = max(
                max_act,
                self.batch_extent(layer.ifmap_bytes_per_image, layer.batch),
                self.batch_extent(layer.ofmap_bytes_per_image, layer.batch))
        max_act = align_up(max_act, _TENSOR_ALIGN)
        if ACT_B_BASE + max_act > act_limit:
            raise ValueError(f"{topology.name}: activations overflow their region")
        self._act_bytes = max_act

    def image_stride(self, bytes_per_image: int) -> int:
        """Address distance between consecutive images of one tensor."""
        if bytes_per_image <= 0:
            return 0
        return align_up(bytes_per_image, self.image_align)

    def batch_extent(self, bytes_per_image: int, batch: int) -> int:
        """Total region span of a batched tensor (strided slabs)."""
        if bytes_per_image <= 0 or batch <= 0:
            return 0
        return ((batch - 1) * self.image_stride(bytes_per_image)
                + bytes_per_image)

    def weight_addr(self, layer_id: int) -> int:
        return self._weight_base[layer_id]

    def kv_addr(self, layer_id: int) -> int:
        """Image-0 KV state of a ``kv=True`` layer.

        The offset inside the per-image slab depends only on the
        topology, never on the batch size; image ``i`` reads the same
        state at ``kv_addr + i * kv_image_stride``.
        """
        return KV_BASE + self._kv_offset[layer_id]

    def ifmap_addr(self, layer_id: int) -> int:
        """Layer i's ifmap buffer: ping for even i, pong for odd."""
        self._check_layer(layer_id)
        return ACT_A_BASE if layer_id % 2 == 0 else ACT_B_BASE

    def ofmap_addr(self, layer_id: int) -> int:
        """Layer i's ofmap buffer — the ifmap buffer of layer i+1."""
        self._check_layer(layer_id)
        return ACT_B_BASE if layer_id % 2 == 0 else ACT_A_BASE

    def data_regions(self) -> List[Region]:
        regions = [
            Region("weights", WEIGHT_BASE, self.weights_end - WEIGHT_BASE),
            Region("act_a", ACT_A_BASE, self._act_bytes),
            Region("act_b", ACT_B_BASE, self._act_bytes),
        ]
        if self.kv_end > KV_BASE:
            regions.append(Region("kv", KV_BASE, self.kv_end - KV_BASE))
        return regions

    @staticmethod
    def metadata_region() -> Region:
        return Region("metadata", METADATA_BASE,
                      PROTECTED_REGION_BYTES - METADATA_BASE)

    def _check_layer(self, layer_id: int) -> None:
        if not 0 <= layer_id < len(self.topology):
            raise IndexError(f"layer_id {layer_id} out of range")
