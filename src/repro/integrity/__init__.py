"""Integrity-verification substrate.

Functional (bit-true) building blocks for memory integrity:

- :mod:`repro.integrity.merkle` — hash trees over version-number blocks
  (classic Merkle tree and the Bonsai variant's counter tree), with the
  root held on-chip; detects tampering and replay.
- :mod:`repro.integrity.multilevel` — SeDA's optBlk / layer / model MAC
  hierarchy with location-bound MACs and incremental XOR folding.
- :mod:`repro.integrity.verifier` — a functional secure-memory model
  combining encryption and integrity for end-to-end property tests.

The on-chip metadata caches of the SGX/MGX timing models (VN cache, MAC
cache) are :class:`repro.protection.metadata_model.MetadataTable`.
"""

from repro.integrity.merkle import MerkleTree
from repro.integrity.multilevel import LayerMacState, MultiLevelIntegrity
from repro.integrity.verifier import SecureMemory, IntegrityError
from repro.integrity.vn import DnnStateVnGenerator, VnExhaustedError

__all__ = [
    "DnnStateVnGenerator",
    "VnExhaustedError",
    "MerkleTree",
    "LayerMacState",
    "MultiLevelIntegrity",
    "SecureMemory",
    "IntegrityError",
]
