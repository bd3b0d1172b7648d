"""Seeded graph6 corpus generator for the snarkcrit benchmark.

Usage::

    PYTHONPATH=src python3 bench/gen.py --workload classify-snarks --seed 1 --out DIR

writes ``DIR/<workload>.g6`` (one graph per line, the CLI's input) and
``DIR/<workload>.json`` (one manifest entry per graph: how it was built,
its order and its girth).  The same seed gives
byte-identical files.

Only the standard library and the package's public constructors are used
(``build_graph``, ``make_named``, ``expand_triangle``, ``encode_graph6``).
The bundled snarks are decoded here with a few lines of stdlib code instead
of the package's parser, which is part of what the benchmark measures.  The
generator checks every graph itself: cubic, connected and simple, and
bridgeless.  Girth is computed here too, independently of the program, so
the benchmark can check the program's girth column.
"""

from __future__ import annotations

import argparse
import json
import random
from collections import deque
from pathlib import Path

from snarkcrit import build_graph, encode_graph6, expand_triangle, make_named

BUNDLED = Path(__file__).resolve().parent / "data" / "bundled_snarks.g6"

WORKLOADS = ("classify-snarks", "classify-colorable", "verify-local-snarks")


# ----------------------------------------------------------------------
# small stdlib graph helpers on (order, sorted edge list) form


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a header-less graph6 line of order at most 62."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 order byte in {line!r}")
    bits = []
    for byte in data[1:]:
        bits.extend((byte - 63) >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def check_simple_cubic_connected_bridgeless(n: int, edges) -> None:
    pairs = {frozenset(e) for e in edges}
    if any(a == b for a, b in edges) or len(pairs) != len(edges):
        raise ValueError("graph is not simple")
    adj = adjacency(n, edges)
    if any(len(nb) != 3 for nb in adj):
        raise ValueError("graph is not cubic")
    if not is_connected(adj) or has_bridge(n, edges):
        raise ValueError("graph is not connected and bridgeless")


def is_connected(adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def has_bridge(n: int, edges) -> bool:
    """An edge is a bridge iff deleting it disconnects the graph (n is small)."""
    for k in range(len(edges)):
        if not is_connected(adjacency(n, edges[:k] + edges[k + 1 :])):
            return True
    return False


def girth(n: int, edges) -> int:
    """Shortest cycle length of a simple graph, by BFS from every vertex."""
    adj = adjacency(n, edges)
    best = n + 1
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    parent[w] = x
                    queue.append(w)
                elif parent[x] != w:
                    best = min(best, dist[x] + dist[w] + 1)
    return best


def relabel(edges) -> tuple[int, list[tuple[int, int]]]:
    """Renumber the used vertices 0..n-1 in sorted order."""
    keep = sorted({x for e in edges for x in e})
    index = {v: i for i, v in enumerate(keep)}
    return len(keep), sorted(tuple(sorted((index[a], index[b]))) for a, b in edges)


def as_edges(graph) -> tuple[int, list[tuple[int, int]]]:
    return relabel([(e.a, e.b) for e in graph.edges])


# ----------------------------------------------------------------------
# constructions


def dot_product(g1, g2, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Isaacs' dot product G1.G2 of two snarks, which is again a snark.

    Two independent edges ab and cd are deleted from G1, and two adjacent
    vertices x, y from G2.  The four ends a, b, c, d are joined to x's and
    y's remaining neighbours.  The order is |G1| + |G2| - 2.
    """
    n1, e1 = g1
    n2, e2 = g2
    ab, cd = rng.choice(
        [(p, q) for i, p in enumerate(e1) for q in e1[i + 1 :] if not set(p) & set(q)]
    )
    x, y = rng.choice(e2)
    adj2 = adjacency(n2, e2)
    xs = sorted(w for w in adj2[x] if w != y)
    ys = sorted(w for w in adj2[y] if w != x)
    edges = [e for e in e1 if e not in (ab, cd)]
    edges += [(a + n1, b + n1) for a, b in e2 if x not in (a, b) and y not in (a, b)]
    edges += [
        (ab[0], xs[0] + n1),
        (ab[1], xs[1] + n1),
        (cd[0], ys[0] + n1),
        (cd[1], ys[1] + n1),
    ]
    return relabel(edges)


def triangle_expansion(g, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n, edges = g
    return as_edges(expand_triangle(build_graph(n, edges), rng.randrange(n)))


def random_cubic(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random connected, bridgeless, simple cubic graph (pairing model)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = sorted(tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2))
        try:
            check_simple_cubic_connected_bridgeless(n, edges)
        except ValueError:
            continue
        return n, edges


# ----------------------------------------------------------------------
# workloads


def bundled() -> list[tuple[int, list[tuple[int, int]]]]:
    return [decode_graph6(line) for line in BUNDLED.read_text().split()]


def _dot_products(pool, orders, rng):
    """One dot product of bundled snarks for each requested order."""
    out = []
    for order in orders:
        factors = [
            (g, h) for g in pool for h in pool if g[0] + h[0] - 2 == order
        ]
        g, h = rng.choice(factors)
        out.append(("dot-product", dot_product(g, h, rng)))
    return out


def build_workload(name: str, seed: int) -> list[tuple[str, tuple[int, list]]]:
    """The (kind, graph) list of a workload, in file order."""
    rng = random.Random(f"{name}:{seed}")
    pool = bundled()
    if name == "classify-snarks":
        # J7 first: it is the longest task, so the pool starts it at once.
        # J9 (order 36) alone would take about 9 s and leave a run only a
        # few invocations; dot products of order 26 and more swing from 0.8
        # to 3 s each with the seed, those of order 18 hardly at all.
        graphs = [("flower", as_edges(make_named("flower(7)")))]
        graphs += [("bundled", g) for g in pool]
        graphs += _dot_products(pool, (18, 18, 18, 18), rng)
        # fixed bases (J5 and an order-26 snark), seeded vertex: a base
        # drawn by the seed would swing the expansions' cost by 60 times
        graphs += [("triangle-expansion", triangle_expansion(pool[b], rng)) for b in (3, 5)]
        return graphs
    if name == "classify-colorable":
        # many small graphs: per-graph cost varies by about 40% within an
        # order, so the count sets the seed-to-seed spread.  Largest first,
        # so the pool's last chunks are short.
        counts = {28: 2, 26: 8, 24: 64, 22: 96, 20: 96}
        return [("random-cubic", random_cubic(n, rng)) for n, k in counts.items() for _ in range(k)]
    if name == "verify-local-snarks":
        # the bundled snarks of order at most 20 and Petersen dot products,
        # so one invocation takes about 2 s and a run holds many of them
        graphs = [("bundled", g) for g in pool if g[0] <= 20]
        graphs += _dot_products(pool, (18, 18, 18, 18), rng)
        return graphs
    raise ValueError(f"unknown workload {name!r}")


def write_workload(name: str, seed: int, out_dir: Path) -> Path:
    lines = []
    manifest = []
    for kind, (n, edges) in build_workload(name, seed):
        check_simple_cubic_connected_bridgeless(n, edges)
        lines.append(encode_graph6(build_graph(n, edges)))
        manifest.append({"kind": kind, "order": n, "girth": girth(n, edges)})
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.g6"
    path.write_text("\n".join(lines) + "\n")
    (out_dir / f"{name}.json").write_text(json.dumps(manifest, indent=0) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, metavar="DIR")
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
