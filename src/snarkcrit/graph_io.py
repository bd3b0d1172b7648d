"""Corpus ingestion (graph6), named graph constructors, report serialization.

Only plain graph6 is read and written: the snark corpora of interest are
lists of simple graphs, and multigraphs arise solely from surgery or from
the named constructors.  Encoding follows the published format bit for
bit: an optional ``>>graph6<<`` header, the order in 6-bit chunks biased
by 63, then the upper triangle of the adjacency matrix in column order,
packed into 6-bit chunks with zero padding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Union

from .criticality import ClassificationRecord, is_snark
from .multigraph import CubicGraph, GraphError, build_graph

GRAPH6_HEADER = ">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem.

    :func:`read_graph6_file` also sets ``line`` to the offending line, as
    read with non-ASCII bytes backslash-escaped, so a caller need not read a
    possibly drained stream again.
    """

    def __init__(self, message: str, offset: int, line_number: Optional[int] = None):
        self.offset = offset
        self.line_number = line_number
        self.line: Optional[str] = None
        where = f"line {line_number}, " if line_number is not None else ""
        super().__init__(f"{where}byte {offset}: {message}")


class Graph6EncodeError(ValueError):
    """The graph cannot be written as graph6 (not simple, or dangling)."""


# ----------------------------------------------------------------------
# graph6 parsing and encoding


def _decode_order(data: bytes, pos: int, line_number: Optional[int]) -> tuple[int, int]:
    """Return (order, offset of the bit vector) for the order field at ``pos``."""
    if len(data) <= pos:
        raise Graph6ParseError("empty input", pos, line_number)
    c0 = data[pos]
    if c0 == 126:
        long = len(data) >= pos + 2 and data[pos + 1] == 126
        start, width = (pos + 2, 6) if long else (pos + 1, 3)
        chunk = data[start : start + width]
        if len(chunk) < width:
            raise Graph6ParseError("truncated order field", len(data), line_number)
        n = 0
        for i, byte in enumerate(chunk):
            if not 63 <= byte <= 126:
                raise Graph6ParseError(f"byte {byte} out of range", start + i, line_number)
            n = (n << 6) | (byte - 63)
        return n, start + width
    if not 63 <= c0 <= 126:
        raise Graph6ParseError(f"byte {c0} out of range", pos, line_number)
    return c0 - 63, pos + 1


def parse_graph6(line: Union[str, bytes], line_number: Optional[int] = None) -> CubicGraph:
    """Parse one graph6 line into a simple graph.

    Strict about the format: every byte must lie in 63..126, the bit vector
    must have exactly the right length, and padding bits must be zero.
    Errors report the byte offset in the stripped line, a ``>>graph6<<``
    header included, and the line number when one is given.
    """
    if isinstance(line, str):
        try:
            data = line.strip().encode("ascii")
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            raise Graph6ParseError(
                f"character {char!r} is not ASCII", exc.start, line_number
            ) from None
    else:
        data = line.strip()
    header = len(GRAPH6_HEADER) if data.startswith(GRAPH6_HEADER.encode()) else 0
    n, start = _decode_order(data, header, line_number)

    bits_needed = n * (n - 1) // 2
    body_len = (bits_needed + 5) // 6
    if len(data) - start < body_len:
        raise Graph6ParseError(
            f"truncated: need {body_len} body bytes, found {len(data) - start}",
            len(data),
            line_number,
        )
    if len(data) - start > body_len:
        raise Graph6ParseError("trailing bytes after bit vector", start + body_len, line_number)

    edges = []
    bit_index = 0
    i, j = 0, 1  # upper triangle in column order
    for k in range(body_len):
        byte = data[start + k]
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"byte {byte} out of range", start + k, line_number)
        group = byte - 63
        for shift in (5, 4, 3, 2, 1, 0):
            bit = (group >> shift) & 1
            if bit_index >= bits_needed:
                if bit:
                    raise Graph6ParseError("nonzero padding bit", start + k, line_number)
            elif bit:
                edges.append((i, j))
            bit_index += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return build_graph(n, edges)


def encode_graph6(graph: CubicGraph) -> str:
    """Encode a simple graph as a header-less graph6 line."""
    if graph.has_dangling:
        raise Graph6EncodeError("graph6 cannot express dangling edges")
    if any(e.is_loop for e in graph.edges):
        raise Graph6EncodeError("graph6 cannot express loops")
    order = {v: i for i, v in enumerate(sorted(graph.vertices))}
    n = len(order)
    seen = set()
    present = set()
    for e in graph.edges:
        x, y = sorted(order[z] for z in e.real_endpoints())
        if (x, y) in seen:
            raise Graph6EncodeError("graph6 cannot express parallel edges")
        seen.add((x, y))
        present.add((x, y))

    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]

    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    body = []
    for k in range(0, len(bits), 6):
        chunk = bits[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        value = 0
        for bit in chunk:
            value = (value << 1) | bit
        body.append(value + 63)
    return bytes(head + body).decode("ascii")


# ----------------------------------------------------------------------
# corpus files


@dataclass(frozen=True)
class CorpusEntry:
    line_number: int  # 1-based
    graph6: str
    graph: CubicGraph


def read_graph6_file(path: Union[str, Path]) -> list[CorpusEntry]:
    """Read a graph6 file, one graph per line; blank lines are skipped.

    The file is read as bytes, so a byte that is not ASCII is a parse
    error at its offset, whatever the locale's encoding.
    """
    entries = []
    for line_number, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            graph = parse_graph6(line, line_number=line_number)
        except Graph6ParseError as exc:
            exc.line = line.decode("ascii", errors="backslashreplace")
            raise
        entries.append(CorpusEntry(line_number, line.decode("ascii"), graph))
    return entries


# ----------------------------------------------------------------------
# named constructors

_BLANUSA_1 = (
    (0, 4), (0, 5), (0, 13), (1, 2), (1, 6), (1, 12), (2, 3), (2, 7), (3, 4),
    (3, 10), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9), (8, 14), (10, 11),
    (10, 15), (11, 12), (11, 16), (12, 17), (13, 15), (13, 16), (14, 16),
    (14, 17), (15, 17),
)

_BLANUSA_2 = (
    (0, 4), (0, 5), (0, 13), (1, 2), (1, 6), (1, 12), (2, 7), (2, 10), (3, 4),
    (3, 8), (3, 14), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9), (10, 11),
    (10, 15), (11, 12), (11, 16), (12, 17), (13, 15), (13, 16), (14, 16),
    (14, 17), (15, 17),
)


def _checked_cubic(graph: CubicGraph) -> CubicGraph:
    if not graph.is_cubic:
        raise GraphError("named constructor produced a non-cubic graph")
    return graph


@lru_cache(maxsize=None)
def petersen() -> CubicGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _checked_cubic(build_graph(10, outer + spokes + inner))


@lru_cache(maxsize=None)
def dumbbell() -> CubicGraph:
    return _checked_cubic(build_graph(2, [(0, 1), (0, 0), (1, 1)]))


@lru_cache(maxsize=None)
def theta() -> CubicGraph:
    return _checked_cubic(build_graph(2, [(0, 1), (0, 1), (0, 1)]))


@lru_cache(maxsize=None)
def complete4() -> CubicGraph:
    return _checked_cubic(
        build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    )


@lru_cache(maxsize=None)
def flower_snark(k: int) -> CubicGraph:
    """The flower snark on 4k vertices, for odd k >= 5.

    k star gadgets, hubs joined to three tips each; the first tips form a
    k-cycle and the remaining tips one 2k-cycle with a twist.
    """
    if k < 5 or k % 2 == 0:
        raise GraphError("flower snarks need an odd parameter k >= 5")
    hub = lambda i: i
    b = lambda i: k + i
    c = lambda i: 2 * k + i
    d = lambda i: 3 * k + i
    edges = []
    for i in range(k):
        edges += [(hub(i), b(i)), (hub(i), c(i)), (hub(i), d(i))]
    edges += [(b(i), b((i + 1) % k)) for i in range(k)]
    edges += [(c(i), c(i + 1)) for i in range(k - 1)]
    edges += [(d(i), d(i + 1)) for i in range(k - 1)]
    edges += [(c(k - 1), d(0)), (d(k - 1), c(0))]
    return _checked_cubic(build_graph(4 * k, edges))


@lru_cache(maxsize=None)
def blanusa(variant: int) -> CubicGraph:
    """The two order-18 snarks; stored as data, checked at build time.

    Variant 1 is the one with the automorphism group of order 8.  Both
    arose as dot products of two Petersen graphs and are validated as
    snarks here rather than trusted.
    """
    if variant == 1:
        graph = build_graph(18, list(_BLANUSA_1))
    elif variant == 2:
        graph = build_graph(18, list(_BLANUSA_2))
    else:
        raise GraphError("variant must be 1 or 2")
    if not is_snark(graph):
        raise GraphError(f"embedded data for blanusa{variant} failed the snark check")
    return _checked_cubic(graph)


_FLOWER_RE = re.compile(r"^flower\(?(\d+)\)?$")


def make_named(name: str) -> CubicGraph:
    """Build a graph by name: dumbbell, petersen, theta, k4, blanusa1,
    blanusa2, or flower(k) / flowerK for odd k >= 5."""
    key = name.strip().lower()
    simple = {
        "dumbbell": dumbbell,
        "petersen": petersen,
        "theta": theta,
        "k4": complete4,
        "blanusa1": lambda: blanusa(1),
        "blanusa2": lambda: blanusa(2),
    }
    if key in simple:
        return simple[key]()
    m = _FLOWER_RE.match(key)
    if m:
        return flower_snark(int(m.group(1)))
    raise GraphError(f"unknown named graph {name!r}")


# ----------------------------------------------------------------------
# record serialization

CSV_COLUMNS = tuple(f.name for f in fields(ClassificationRecord))


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and math.isinf(value):
        return ""
    return str(value)


def _json_value(value):
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def write_records(records: Iterable[ClassificationRecord], format: str = "csv") -> bytes:
    """Serialize records deterministically, one row or object per graph.

    Undefined values (refused verdicts, undefined cyclic connectivity,
    infinite girth) come out as empty CSV cells or JSON nulls.
    """
    records = list(records)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell(getattr(r, col)) for col in CSV_COLUMNS])
        return buf.getvalue().encode("utf-8")
    if format == "jsonl":
        lines = []
        for r in records:
            obj = {col: _json_value(getattr(r, col)) for col in CSV_COLUMNS}
            lines.append(json.dumps(obj))
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
