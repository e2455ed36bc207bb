"""Shared low-level helpers: bit/byte manipulation."""

from repro.utils.bitops import (
    ceil_div,
    align_down,
    align_up,
    int_to_bytes,
    bytes_to_int,
    xor_bytes,
)

__all__ = [
    "ceil_div",
    "align_down",
    "align_up",
    "int_to_bytes",
    "bytes_to_int",
    "xor_bytes",
]
