"""Brute-force coloring ground truth.

Fixes the bit-ordering convention for the whole pipeline: vertex 0's
color bits come first in every data bitstring, most significant bit of
each color first.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge
from .graphs import Graph, Instance

ENUMERATION_CEILING = 24  # data qubits
# data strings checked per step; bounds solutions' memory at the ceiling
_CHUNK = 2 ** 16


def is_proper(graph: Graph, assignment, k: int) -> bool:
    """True iff every color is < k and every edge is bichromatic."""
    colors = list(assignment)
    if any(c >= k for c in colors):
        return False
    return all(colors[i] != colors[j] for i, j in graph.edges)


def encode_assignment(assignment, c: int) -> str:
    """Data bitstring for a color assignment (vertex 0 first, MSB first)."""
    return "".join(format(color, f"0{c}b") for color in assignment)


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
    out, spec = set(), f"0{width}b"
    for start in range(0, 2 ** width, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, 2 ** width), dtype=np.int64)
        colors = [(x >> c * (n - 1 - v)) & (2 ** c - 1) for v in range(n)]
        proper = np.ones(x.size, dtype=bool)
        if k < 2 ** c:
            for color in colors:
                proper &= color < k
        for i, j in instance.graph.edges:
            proper &= colors[i] != colors[j]
        out.update(format(s, spec) for s in x[proper].tolist())
    return out
