"""Memory-protection scheme timing models.

Each scheme consumes the per-layer DRAM trace the accelerator simulator
emitted and produces the *additional* traffic its security metadata
costs, plus the crypto-throughput constraint its engine organization
imposes. Schemes are compared in Fig. 5 (traffic) and Fig. 6
(performance):

- :class:`repro.protection.unprotected.Unprotected` — the baseline.
- :class:`repro.protection.sgx.SgxScheme` — AES-CTR + per-unit MAC + VN +
  integrity tree over VNs, VN/MAC caches (SGX-64B, SGX-512B).
- :class:`repro.protection.mgx.MgxScheme` — on-chip VN generation from
  DNN state; per-unit MACs remain off-chip (MGX-64B, MGX-512B).
- :class:`repro.protection.seda.SedaScheme` — B-AES encryption +
  multi-level integrity (optBlk/layer/model MACs).
"""

from repro.protection.base import (
    LayerProtection,
    ProtectionScheme,
    SchemeSummary,
)
from repro.protection.layout import MetadataLayout
from repro.protection.unprotected import Unprotected
from repro.protection.sgx import SgxScheme
from repro.protection.mgx import MgxScheme
from repro.protection.seda import SedaScheme
from repro.protection.securator import SecuratorScheme

__all__ = [
    "LayerProtection",
    "ProtectionScheme",
    "SchemeSummary",
    "MetadataLayout",
    "Unprotected",
    "SgxScheme",
    "MgxScheme",
    "SedaScheme",
    "SecuratorScheme",
]


def make_scheme(name: str) -> ProtectionScheme:
    """Factory for the paper's evaluated schemes by figure label."""
    factories = {
        "baseline": Unprotected,
        "sgx-64b": lambda: SgxScheme(unit_bytes=64),
        "sgx-512b": lambda: SgxScheme(unit_bytes=512),
        "mgx-64b": lambda: MgxScheme(unit_bytes=64),
        "mgx-512b": lambda: MgxScheme(unit_bytes=512),
        "seda": SedaScheme,
        "securator": SecuratorScheme,
    }
    try:
        return factories[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; known: {sorted(factories)}") from None


SCHEME_NAMES = ["sgx-64b", "mgx-64b", "sgx-512b", "mgx-512b", "seda"]
