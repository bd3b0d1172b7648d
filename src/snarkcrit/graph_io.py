"""Corpus ingestion (graph6), named graph constructors, report serialization.

Only plain graph6 is read and written: the snark corpora of interest are
lists of simple graphs, and multigraphs arise solely from surgery or from
the named constructors.  Encoding follows the published format bit for
bit (McKay, "formats.txt"): an optional ``>>graph6<<`` header, the order,
then the upper triangle of the adjacency matrix in column order, zero
padded to a whole byte.  Each byte in 63..126 holds the six bits of its
value minus 63, most significant first; ``_BITS`` maps a byte to that
six-character bit string and ``_CHAR`` maps it back, for the order field
and the bit vector alike.  An order below 63 is one byte, a larger one
is ``~`` and 18 bits, or ``~~`` and 36 bits.  Vertices i < j share bit
k = j(j - 1)/2 + i, so bit k belongs to j = (isqrt(8k + 1) + 1) // 2 and
i = k - j(j - 1)/2.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

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

_BITS = {byte: format(byte - 63, "06b") for byte in range(63, 127)}
_CHAR = {bits: chr(byte) for byte, bits in _BITS.items()}

# the whitespace that bytes.strip() removes, so a str line strips as its bytes do
_ASCII_SPACE = " \t\n\r\x0b\x0c"


def _unpack(data: bytes, start: int, stop: int, line_number: Optional[int]) -> str:
    """The bits of ``data[start:stop]``; a byte outside 63..126 raises at its offset."""
    try:
        return "".join([_BITS[byte] for byte in data[start:stop]])
    except KeyError as exc:
        byte = exc.args[0]
        raise Graph6ParseError(
            f"byte {byte} out of range", data.index(byte, start), line_number
        ) from None


def _pack(bits: str) -> str:
    """The graph6 characters of ``bits``, zero padded to a multiple of six."""
    bits += "0" * (-len(bits) % 6)
    return "".join([_CHAR[bits[k : k + 6]] for k in range(0, len(bits), 6)])


def _decode_order(data: bytes, pos: int, line_number: Optional[int]) -> tuple[int, int]:
    """Return (order, offset of the bit vector) for the order field at ``pos``."""
    if len(data) <= pos:
        raise Graph6ParseError("empty input", pos, line_number)
    if data[pos] != 126:
        start, width = pos, 1
    elif len(data) >= pos + 2 and data[pos + 1] == 126:
        start, width = pos + 2, 6
    else:
        start, width = pos + 1, 3
    if len(data) < start + width:
        raise Graph6ParseError("truncated order field", len(data), line_number)
    return int(_unpack(data, start, start + width, line_number), 2), start + width


def parse_graph6(line: Union[str, bytes], line_number: Optional[int] = None) -> CubicGraph:
    """Parse one graph6 line into a simple graph.

    Strict about the format: every byte must lie in 63..126, the bit vector
    must have exactly the right length, and padding bits must be zero.
    Only ASCII whitespace is stripped, from str and bytes alike.
    Errors report the byte offset in the stripped line, a ``>>graph6<<``
    header included, and the line number when one is given.
    """
    if isinstance(line, str):
        try:
            data = line.strip(_ASCII_SPACE).encode("ascii")
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
    bits = _unpack(data, start, len(data), line_number)
    if "1" in bits[bits_needed:]:  # the padding, all in the last byte
        raise Graph6ParseError("nonzero padding bit", len(data) - 1, line_number)

    edges = []
    k = bits.find("1")
    while k >= 0:
        j = (math.isqrt(8 * k + 1) + 1) // 2
        edges.append((k - j * (j - 1) // 2, j))
        k = bits.find("1", k + 1)
    return build_graph(n, edges)


def encode_graph6(graph: CubicGraph) -> str:
    """Encode a simple graph as a header-less graph6 line."""
    if graph.has_dangling:
        raise Graph6EncodeError("graph6 cannot express dangling edges")
    if any(e.is_loop for e in graph.edges):
        raise Graph6EncodeError("graph6 cannot express loops")
    order = {v: i for i, v in enumerate(sorted(graph.vertices))}
    n = len(order)
    bits = bytearray(b"0" * (n * (n - 1) // 2))
    for e in graph.edges:
        i, j = sorted(order[z] for z in e.real_endpoints())
        k = j * (j - 1) // 2 + i
        if bits[k] == ord("1"):
            raise Graph6EncodeError("graph6 cannot express parallel edges")
        bits[k] = ord("1")

    head, width = ("", 6) if n <= 62 else ("~", 18) if n <= 258047 else ("~~", 36)
    return head + _pack(format(n, f"0{width}b") + bits.decode("ascii"))


# ----------------------------------------------------------------------
# corpus files


@dataclass(frozen=True)
class CorpusEntry:
    line_number: int  # 1-based
    graph6: str
    graph: CubicGraph


def read_graph6_file(path: Union[str, Path]) -> Iterator[CorpusEntry]:
    """Read a graph6 file lazily, one graph per line; blank lines are skipped.

    The entries come one at a time as the file is read, so the result is a
    one-shot iterator: pass it to ``list`` to index it or read it twice.
    The file is read as bytes, so a byte that is not ASCII is a parse error
    at its offset, whatever the locale's encoding.
    """
    with open(path, "rb") as lines:
        for line_number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                graph = parse_graph6(line, line_number=line_number)
            except Graph6ParseError as exc:
                exc.line = line.decode("ascii", errors="backslashreplace")
                raise
            yield CorpusEntry(line_number, line.decode("ascii"), graph)


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
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell(getattr(r, col)) for col in CSV_COLUMNS])
        return buf.getvalue().encode("utf-8")
    if format == "jsonl":
        import json

        lines = []
        for r in records:
            obj = {col: _json_value(getattr(r, col)) for col in CSV_COLUMNS}
            lines.append(json.dumps(obj))
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
