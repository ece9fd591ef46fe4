"""Bitstring helpers and the canonical wire encoding.

Bitstrings are plain str of '0'/'1' characters, most significant bit first.
The integer value of a bitstring is int(s, 2); index 0 is the leftmost bit.

Wire encoding of a bitstring: u32 little-endian bit length, then the bits
packed big-endian within each byte (bit i lands in byte i//8 at position
7 - i%8), zero-padded. All protocol payload equality checks compare these
bytes, so the encoding must stay stable. Every decoder raises
MalformedMessage for bytes that do not decode.
"""

import struct

from .errors import ConfigInvalid, LengthMismatch, MalformedMessage


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError(f"xor of unequal lengths {len(a)} and {len(b)}")
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b") if a else ""


def dot_bits(a: str, b: str) -> int:
    """Inner product mod 2."""
    if len(a) != len(b):
        raise ValueError(f"dot of unequal lengths {len(a)} and {len(b)}")
    return (int(a, 2) & int(b, 2)).bit_count() & 1


def int_to_bits(value: int, width: int) -> str:
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def check_bits(s: str, width: int | None, what: str) -> int:
    """Return len(s) if s is a str of width '0'/'1' characters (width
    None: any number), else raise: LengthMismatch for the wrong width,
    ConfigInvalid for anything but a str or a character other than '0'/'1'."""
    if not isinstance(s, str):
        raise ConfigInvalid(f"{what} must be a str of '0'/'1' bits, got {s!r}")
    if width is not None and len(s) != width:
        raise LengthMismatch(f"{what} width {len(s)} != {width}")
    if s.strip("01"):
        raise ConfigInvalid(f"{what} must be '0'/'1' bits, got {s!r}")
    return len(s)


_U32 = struct.Struct("<I")
pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from


def _overrun(size: int, offset: int, data: bytes) -> MalformedMessage:
    return MalformedMessage(
        f"{size} bytes at offset {offset} overrun a {len(data)}-byte message")


def read_u32(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one u32 little-endian; returns (value, next offset)."""
    if offset + 4 > len(data):
        raise _overrun(4, offset, data)
    return _unpack_u32(data, offset)[0], offset + 4


def pack_bits(s: str) -> bytes:
    """Length-prefixed packed form of a bitstring."""
    nbytes = (len(s) + 7) // 8
    value = int(s, 2) << (8 * nbytes - len(s)) if s else 0
    return pack_u32(len(s)) + value.to_bytes(nbytes, "big")


def unpack_bits(data: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode one packed bitstring; returns (bits, next offset)."""
    nbits, offset = read_u32(data, offset)
    nbytes = (nbits + 7) // 8
    end = offset + nbytes
    if end > len(data):
        raise _overrun(nbytes, offset, data)
    value = int.from_bytes(data[offset:end], "big") >> (8 * nbytes - nbits) if nbits else 0
    return int_to_bits(value, nbits), end


def encode_parts(*parts: bytes) -> bytes:
    """Concatenate byte strings, each with a u32 length prefix."""
    return b"".join(pack_u32(len(p)) + p for p in parts)


def decode_parts(data: bytes) -> list[bytes]:
    """Split encode_parts output back into its parts."""
    parts, offset, size = [], 0, len(data)
    while offset < size:
        if offset + 4 > size:
            raise _overrun(4, offset, data)
        length = _unpack_u32(data, offset)[0]
        offset += 4
        end = offset + length
        if end > size:
            raise _overrun(length, offset, data)
        parts.append(data[offset:end])
        offset = end
    return parts
