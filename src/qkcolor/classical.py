"""Brute-force coloring ground truth.

Fixes the bit-ordering convention for the whole pipeline: vertex 0's
color bits come first in every data bitstring, most significant bit of
each color first.  ``bitstrings`` writes the strings of many indices in
that order at once: each index is shifted to its bits, 48 (the code of
"0") is added, and each row of w codes is read as one w-character
string, so no string is formatted one at a time.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge
from .graphs import Graph, Instance

ENUMERATION_CEILING = 24  # data qubits
# data strings checked per step; bounds solutions' memory at the ceiling
_CHUNK = 2 ** 16


def is_proper(graph: Graph, assignment, k: int) -> bool:
    """True iff every color is in 0..k-1 and every edge is bichromatic."""
    colors = list(assignment)
    if any(not 0 <= c < k for c in colors):
        return False
    return all(colors[i] != colors[j] for i, j in graph.edges)


def encode_assignment(assignment, c: int) -> str:
    """Data bitstring for a color assignment (vertex 0 first, MSB first).
    A color outside 0..2**c-1 has no c-bit code and raises ValueError."""
    colors = list(assignment)
    for color in colors:
        if not 0 <= color < 2 ** c:
            raise ValueError(f"color {color} has no {c}-bit code")
    return "".join(format(color, f"0{c}b") for color in colors)


def bitstrings(indices: np.ndarray, width: int) -> list[str]:
    """``format(x, f"0{width}b")`` for every index x of a 1-d integer
    array, in order, for 1 <= width <= 62, ``_CHUNK`` indices at a time."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    out: list[str] = []
    for start in range(0, indices.size, _CHUNK):
        x = indices[start:start + _CHUNK, None]
        codes = (x >> shifts & 1 | 48).astype("<u4")  # 48 is "0"
        out += codes.view(f"<U{width}")[:, 0].tolist()
    return out


def decode_bitstring(bits: str, n: int, c: int) -> list[int]:
    return [int(bits[v * c:(v + 1) * c], 2) for v in range(n)]


def solutions(instance: Instance) -> set[str]:
    """All data bitstrings encoding proper k-colorings; M = len(result).

    The 2**(n*c) data strings are checked as integer arrays, ``_CHUNK``
    at a time: vertex v's color is ``(x >> c*(n-1-v)) & (2**c - 1)``.
    """
    n, c, k = instance.graph.n, instance.c, instance.k
    width = n * c
    if width > ENUMERATION_CEILING:
        raise TooLarge(f"{width} data qubits exceeds enumeration ceiling")
    out = set()
    for start in range(0, 2 ** width, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, 2 ** width), dtype=np.int64)
        colors = [(x >> c * (n - 1 - v)) & (2 ** c - 1) for v in range(n)]
        proper = np.ones(x.size, dtype=bool)
        if k < 2 ** c:
            for color in colors:
                proper &= color < k
        for i, j in instance.graph.edges:
            proper &= colors[i] != colors[j]
        out.update(bitstrings(x[proper], width))
    return out
