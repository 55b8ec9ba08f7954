#!/usr/bin/env python3
"""Reference vectors for the snapshot codec, from its written definitions.

An implementation of the container seal and of program fingerprints,
written from the `codec` module doc alone, that prints the values
`codec.rs`'s `fingerprints_match_reference_vectors` and
`report_container_bytes_are_pinned` pin. Run: python3 fingerprint_vectors.py
"""

M = (1 << 64) - 1
P1, P2, P3 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9


def rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & M


def seal(body):
    """Four lanes of little-endian words, zero-padded to 32-byte blocks."""
    n = len(body)
    body = body + bytes(-n % 32)
    lanes = [(P1 + P2) & M, P2, 0, -P1 & M]
    for k in range(0, len(body), 32):
        for i in range(4):
            w = int.from_bytes(body[k + 8 * i:k + 8 * i + 8], "little")
            lanes[i] = rotl((lanes[i] + w * P2) & M, 31) * P1 & M
    h = (rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12) + rotl(lanes[3], 18) + n) & M
    h ^= h >> 33
    h = h * P2 & M
    h ^= h >> 29
    h = h * P3 & M
    return h ^ (h >> 32)


def u32(v):
    return v.to_bytes(4, "little")


def structure(name, regions, serialized):
    """The structure-section encoding; `regions` is [(parallel, [epoch])]."""
    out = u32(len(name)) + name + u32(len(regions))
    for parallel, epochs in regions:
        if parallel and not serialized:
            out += b"\x01" + u32(len(epochs)) + b"".join(u32(len(e)) for e in epochs)
        else:
            out += b"\x00" + u32(sum(len(e) for e in epochs))
    return out


def fingerprint(name, regions, serialized=False):
    records = b"".join(r for _, epochs in regions for e in epochs for r in e)
    return seal(structure(name, regions, serialized) + seal(records).to_bytes(8, "little"))


def record(i):
    """A load: pc i, class 2, 8 bytes, no dependence, address 0x1000 + 8i."""
    return u32(i) + bytes([2, 8]) + (0).to_bytes(2, "little") + (0x1000 + 8 * i).to_bytes(8, "little")


r = [record(i) for i in range(5)]
programs = {
    "empty": (b"", []),
    "seq": (b"seq", [(False, [r[0:3]])]),
    "par": (b"par", [(False, [r[0:1]]), (True, [r[1:3], [], r[3:4]]), (False, [[]])]),
    "par_moved": (b"par", [(False, [r[0:1]]), (True, [r[1:2], r[2:3], r[3:4]]), (False, [[]])]),
}
for label, (name, regions) in programs.items():
    print(f"{label}: {fingerprint(name, regions):#018x} serialized {fingerprint(name, regions, True):#018x}")

payload = b'{"total_cycles":42}'
body = b"TLSNAP\x02\x04" + (0x0123456789ABCDEF).to_bytes(8, "little") + len(payload).to_bytes(8, "little") + payload
print(f"report container seal: {seal(body):#018x}")
print(f"seal(''): {seal(b''):#018x}  seal('a'): {seal(b'a'):#018x}")
