"""FIPS-197 AES block cipher, implemented from scratch.

Pure-Python AES-128/192/256 with the standard S-box generated from the
GF(2^8) multiplicative inverse plus affine transform (computing the table
instead of transcribing 256 constants removes a whole class of typo bugs;
known-answer tests in ``tests/crypto/test_aes.py`` pin it to FIPS-197).

The key-expansion output is exposed as :attr:`Aes.round_keys_bytes` because
SeDA's bandwidth-aware encryption derives per-segment one-time pads by
XORing the base OTP with these round keys (paper Section III-B,
Algorithm 1, defense lines 6-7).
"""

from __future__ import annotations

from typing import List

_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1, the AES field polynomial


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverses from log/antilog tables of the generator 3:
    # x = 3^k has inverse 3^(255 - k), and 0 maps to 0.
    antilog = [1] * 255
    for k in range(1, 255):
        antilog[k] = gf_mul(antilog[k - 1], 3)
    inverse = [0] * 256
    for k, x in enumerate(antilog):
        inverse[x] = antilog[-k % 255]
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        s = 0x63
        for shift in range(5):
            rotated = ((b << shift) | (b >> (8 - shift))) & 0xFF
            s ^= rotated
        sbox[x] = s
    return sbox


SBOX: List[int] = _build_sbox()
INV_SBOX: List[int] = [0] * 256
for _i, _s in enumerate(SBOX):
    INV_SBOX[_s] = _i

RCON: List[int] = [0x01]
while len(RCON) < 14:
    RCON.append(gf_mul(RCON[-1], 2))

BLOCK_BYTES = 16

_KEY_PARAMS = {
    16: (4, 10),  # Nk, Nr for AES-128
    24: (6, 12),  # AES-192
    32: (8, 14),  # AES-256
}


def _sub_word(word: int) -> int:
    return (
        (SBOX[(word >> 24) & 0xFF] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


def _rot_word(word: int) -> int:
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


def key_expansion(key: bytes) -> List[int]:
    """Expand ``key`` into ``4 * (Nr + 1)`` 32-bit round-key words."""
    if len(key) not in _KEY_PARAMS:
        raise ValueError(f"key must be 16, 24 or 32 bytes, got {len(key)}")
    nk, nr = _KEY_PARAMS[len(key)]
    words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp)) ^ (RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class Aes:
    """AES block cipher for a fixed key.

    >>> cipher = Aes(bytes(range(16)))
    >>> ct = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
    >>> ct.hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    def __init__(self, key: bytes):
        self.key = bytes(key)
        self._words = key_expansion(self.key)
        self.rounds = len(self._words) // 4 - 1

    @property
    def round_keys_bytes(self) -> List[bytes]:
        """The ``Nr + 1`` 16-byte round keys produced by keyExpansion.

        SeDA's B-AES uses these as the XOR masks that diversify the shared
        OTP into per-128-bit-segment OTPs.
        """
        out = []
        for r in range(self.rounds + 1):
            chunk = b"".join(
                self._words[4 * r + c].to_bytes(4, "big") for c in range(4)
            )
            out.append(chunk)
        return out

    # -- round primitives (state is a flat list of 16 bytes, column-major:
    #    state[r + 4*c] per FIPS-197) --

    def _add_round_key(self, state: List[int], round_index: int) -> None:
        for c in range(4):
            word = self._words[4 * round_index + c]
            state[4 * c + 0] ^= (word >> 24) & 0xFF
            state[4 * c + 1] ^= (word >> 16) & 0xFF
            state[4 * c + 2] ^= (word >> 8) & 0xFF
            state[4 * c + 3] ^= word & 0xFF

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r of the state (elements state[r], state[r+4], ...) rotates
        # left by r positions.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3)
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2)

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = (gf_mul(col[0], 14) ^ gf_mul(col[1], 11)
                                ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9))
            state[4 * c + 1] = (gf_mul(col[0], 9) ^ gf_mul(col[1], 14)
                                ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13))
            state[4 * c + 2] = (gf_mul(col[0], 13) ^ gf_mul(col[1], 9)
                                ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11))
            state[4 * c + 3] = (gf_mul(col[0], 11) ^ gf_mul(col[1], 13)
                                ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14))

    # -- public block operations --

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_BYTES:
            raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(plaintext)}")
        state = list(plaintext)
        self._add_round_key(state, 0)
        for r in range(1, self.rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, r)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self.rounds)
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != BLOCK_BYTES:
            raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(ciphertext)}")
        state = list(ciphertext)
        self._add_round_key(state, self.rounds)
        for r in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, r)
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, 0)
        return bytes(state)
