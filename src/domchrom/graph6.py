"""graph6 encoding and decoding (the >>graph6<< interchange format).

Only the undirected graph6 flavor is supported: one graph per ASCII line,
size prefix N(n) followed by the upper triangle of the adjacency matrix in
column-major order, packed into 6-bit groups offset by 63.

The decoder reads the whole body as one integer and cuts it into columns;
a fault is reported with its byte offset (the last byte for nonzero
padding). The encoder packs bit by bit, which measured faster for small
graphs than building one integer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph, GraphError

HEADER = ">>graph6<<"

_MAX_N = 258047  # largest order of the 4-byte size encoding; enough here

# Each graph6 character as the binary string of its 6-bit group.
_SIX_BITS = {o: format(o - 63, "06b") for o in range(63, 127)}


class Graph6Error(GraphError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


def _check_chars(data: str) -> None:
    for i, ch in enumerate(data):
        o = ord(ch)
        if not (63 <= o <= 126):
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126", offset=i)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (a leading >>graph6<< header is tolerated)."""
    data = text.strip()
    if data.startswith(HEADER):
        data = data[len(HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string", offset=0)
    _check_chars(data)

    # Size prefix.
    first = ord(data[0]) - 63
    if first < 63:
        n = first
        pos = 1
    else:
        if len(data) >= 2 and data[1] == "~":
            raise Graph6Error(f"orders above {_MAX_N} are not supported", offset=0)
        if len(data) < 4:
            raise Graph6Error("truncated 4-byte size prefix", offset=len(data))
        n = int(data[1:4].translate(_SIX_BITS), 2)
        pos = 4
        if n < 63:
            raise Graph6Error("non-canonical long size prefix for n < 63", offset=0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"adjacency body has {len(body)} bytes, expected {nbytes} for n={n}",
            offset=pos + min(len(body), nbytes),
        )

    # The body as one integer, 6 bits per character, first bit highest. The
    # pad bits that fill the last character are its low bits and must be 0.
    bits = int(body.translate(_SIX_BITS), 2) if body else 0
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", offset=pos + nbytes - 1)
    bits >>= pad
    # Column v holds rows 0..v-1, row 0 highest; the last column is lowest.
    rows = [0] * n
    for v in range(n - 1, 0, -1):
        col = bits & ((1 << v) - 1)
        bits >>= v
        while col:
            top = col.bit_length() - 1
            u = v - 1 - top
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            col ^= 1 << top
    return Graph(n, rows, _checked=True)


def to_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of the graph in its current vertex order."""
    n = g.n
    if n > _MAX_N:
        raise Graph6Error(f"orders above {_MAX_N} are not supported")
    if n <= 62:
        prefix = chr(63 + n)
    else:
        prefix = "~" + "".join(chr(63 + (n >> s & 0x3F)) for s in (12, 6, 0))
    chunks = []
    group = 0
    filled = 0
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            group = group << 1 | (col >> u & 1)
            filled += 1
            if filled == 6:
                chunks.append(chr(63 + group))
                group = 0
                filled = 0
    if filled:
        group <<= 6 - filled
        chunks.append(chr(63 + group))
    return prefix + "".join(chunks)


def iter_graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_number, payload) for non-blank lines, handling the header."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if lineno == 1 and line.startswith(HEADER):
            line = line[len(HEADER):].strip()
        if line:
            yield lineno, line
