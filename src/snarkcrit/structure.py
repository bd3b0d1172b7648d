"""Structural diagnostics: girth, bridges, cyclic edge-connectivity.

Each edge that is neither a loop nor dangling gets a cycle-space label:
the fundamental cycles through it, relative to a BFS spanning forest.  An
edge set is a cut exactly when its labels XOR to zero, so a bridge is an
edge whose label is zero.  Girth is a BFS from every vertex.

Cyclic edge-connectivity is the smallest number of edges whose removal
leaves at least two components that each contain a cycle; it is undefined
for graphs without two vertex-disjoint cycles.  For a connected cubic graph
it is settled where it can be from the labels.  A bridge or two equal
labels (a 2-edge cut) give the answer 1 or 2.  Otherwise the answer is
the smallest k in 3..5 for which k edges, no two of them meeting, have
labels that XOR to zero, when there is one; 5-sets are looked for from
girth 6 on.  This one rule also settles 4 at girth 4 from order 8 on,
where the four edges leaving a 4-cycle are such a set.  The rest get the
exhaustive search, which pairs up chordless cycles (loops count as
1-cycles, parallel pairs as 2-cycles) and takes the minimum edge cut
separating any vertex-disjoint pair, found by augmenting paths with both
cycles contracted.  It stops at the first pair whose cut meets the
proven lower bound: the girth, at least 4 and capped at 6.  Every
cycle-containing side of a cut contains a chordless cycle, so
scanning all chordless-cycle pairs is exact.  It still lists every
chordless cycle, whose number grows exponentially with the order, and
from girth 7 on the bound may stay below the answer.  The tests check
the result against the plain all-pairs search and, on small instances,
against exhaustive cut enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Union

from .multigraph import DANGLING, CubicGraph, Edge, GraphError


@dataclass(frozen=True)
class StructureProfile:
    girth: Union[int, float]  # math.inf for forests
    cyclic_edge_connectivity: Optional[int]  # None when undefined or not computed


def structure_profile(graph: CubicGraph) -> StructureProfile:
    """Collect the diagnostics; cyclic connectivity only where it is defined.

    For non-cubic or disconnected input the cyclic-connectivity slot is None
    (the dedicated function refuses such graphs loudly instead).  The girth
    is computed once, for the profile and the cuts.
    """
    shortest = girth(graph)
    cec: Optional[int] = None
    if graph.is_cubic and graph.is_connected and not graph.has_dangling:
        cec = cyclic_edge_connectivity(graph, shortest=shortest)
    return StructureProfile(girth=shortest, cyclic_edge_connectivity=cec)


def girth(graph: CubicGraph) -> Union[int, float]:
    """Length of a shortest cycle: a loop is 1, a parallel pair 2, forests inf.

    A BFS from every vertex, over (neighbour, edge id) lists built once.
    Any edge at x other than the one that reached x, leading to a reached
    vertex y, closes a walk of length dist(x) + dist(y) + 1 that holds a
    cycle, and from a root on a shortest cycle some such edge gives exactly
    its length.  A loop (y = x) and the
    second edge of a parallel pair are such edges, so they need no rule of
    their own.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices}
    for eid, a, b in graph.edges:
        if a is DANGLING or b is DANGLING:
            continue
        adj[a].append((b, eid))
        if b != a:
            adj[b].append((a, eid))
    best = math.inf
    for root in adj:
        dist = {root: 0}
        via = {root: None}  # vertex -> the id of the edge that reached it
        queue = [root]
        for x in queue:  # ``queue`` grows while it is walked
            if dist[x] * 2 >= best:
                break
            for y, eid in adj[x]:
                if eid == via[x]:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    via[y] = eid
                    queue.append(y)
                else:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def find_bridges(
    graph: CubicGraph, *, labels: Optional[dict[int, int]] = None
) -> tuple[int, ...]:
    """Ids of all cut-edges: the edges whose label over the BFS forest is zero.

    Loops, dangling edges and free edges get no label and never qualify.
    ``labels`` is ``_cycle_labels(graph)`` when the caller has it already.
    """
    if labels is None:
        labels = _cycle_labels(graph)
    return tuple(sorted(eid for eid, label in labels.items() if not label))


def cyclic_edge_connectivity(
    graph: CubicGraph, *, shortest: Union[int, float, None] = None
) -> Optional[int]:
    """Minimum cyclic edge cut size for a connected cubic graph, or None.

    None means no two vertex-disjoint cycles exist, so no cut can separate
    two cycle-containing parts.  Non-cubic input is refused.  ``shortest``
    is ``girth(graph)`` when the caller has it already.

    The cuts of size 1 to 5 are read off cycle-space labels, and only the
    rest is searched for:

    * Cuts of size 1 and 2.  A cyclic cut disconnects the graph, so it has
      at least lambda edges, the edge-connectivity.  A zero label is a
      bridge and two equal labels are a 2-edge cut, so lambda <= 2 is read
      off the labels, and then it is the answer: a side S of a k-edge cut
      spans (3|S| - k) / 2 edges, at least |S| whenever |S| >= k, which
      holds for k = 1 and, as 3|S| - k is even, for k = 2.  A multigraph
      with at least as many edges as vertices holds a cycle, loops and
      parallel pairs included, so both sides of a minimum cut hold one.
    * Sizes 3 to 5.  Now lambda = 3 (the edges at a vertex form a cut),
      which rules out loops and parallel edges except in the theta graph,
      as either would give a smaller cut.  A set of k = 3, 4 or 5 edges
      whose labels XOR to zero is a cut that cannot split into smaller
      cuts, as each would need 3 edges, so it is a bond and both of its
      sides are connected.  A side S spans (3|S| - k) / 2 edges, so it
      holds a cycle exactly when |S| >= k; a smaller side is a vertex, an
      edge or a path of three vertices, and one of its vertices meets two
      edges of the bond.  Conversely, if two edges of a bond meet at u in
      S, moving u to the other side leaves a set of k - 1 edges.  No cut
      has 2 edges and no cyclic cut has k - 1, so S is {u} or that set
      has a side with fewer than k - 1 vertices, and S or the other side
      has fewer than k.  So, once no smaller cyclic cut exists, a zero-XOR
      k-set is a cyclic cut exactly when no two of its edges meet.  At
      girth 4 and n >= 8 this settles 4 when no cyclic 3-cut exists: a
      4-cycle Q has no chord, which would close a triangle, and the four
      edges leaving Q share no end, as an end w shared by two of them
      would make Q plus w one side of a cut of at most 3 edges whose
      other side has n - 5 >= 3 vertices.  The third edge of a 3-set is
      one dictionary lookup by label, and a table of the pairs that do
      not meet, by the XOR of their labels, gives the 4-sets as two pairs
      in one entry and the 5-sets as a triple whose XOR is that of a
      pair.  5-sets are looked for only at g >= 6: at g = 5 a 5-cycle
      already bounds the answer by 5.
    * Otherwise every disjoint pair of chordless cycles gets a max-flow,
      capped at the best cut so far, and the search stops at the first
      cut that meets the lower bound min(max(g, 4), 6), as the label rule
      rules out every size below it.  Every cycle-containing side of a cut
      holds a chordless cycle, so the minimum over all pairs is exact.
      The search lists every chordless cycle first, and their number
      grows exponentially with the order.  From girth 7 on the answer
      may exceed the bound, and then every disjoint pair gets a max-flow.
    """
    if not graph.is_cubic or graph.has_dangling:
        raise GraphError("cyclic edge-connectivity is computed for cubic graphs only")
    if not graph.is_connected:
        raise GraphError("cyclic edge-connectivity needs a connected graph")

    labels = _cycle_labels(graph)
    # also with a loop, as the other edge at its vertex is a bridge
    if find_bridges(graph, labels=labels):
        return 1
    ends: dict[int, int] = {}  # label -> its edge's end bits; equal labels keep the first
    for eid, label in labels.items():
        e = graph.edge(eid)
        ends.setdefault(label, 1 << e.a | 1 << e.b)
    if len(ends) < len(graph.edges):  # two edges share a label
        return 2
    if shortest is None:
        shortest = girth(graph)
    found = _smallest_label_cut(ends, shortest >= 6)
    if found is not None:
        return found
    lower = min(max(shortest, 4), 6)
    return _min_cut_over_cycle_pairs(graph, chordless_cycles(graph), lower)


def _cycle_labels(graph: CubicGraph) -> dict[int, int]:
    """Edge id -> cycle-space label, for every edge that is neither a loop nor dangling.

    Each edge is labelled with the fundamental cycles through it, relative
    to a BFS spanning forest (one tree per component, rooted at its
    smallest vertex), as a bit set.  An edge set is a cut exactly when
    every cycle meets it an even number of times, that is when its labels
    XOR to zero.  So a bridge is an edge whose label is zero.
    """
    tree_edge: dict[int, Optional[Edge]] = {}  # vertex -> the tree edge to its parent
    order: list[int] = []  # BFS order, one tree after another
    for root in sorted(graph.vertices):
        if root in tree_edge:
            continue
        tree_edge[root] = None
        order.append(root)
        # this tree's BFS; ``order`` grows while it is walked
        for v in islice(order, len(order) - 1, None):
            for e in graph.incident_edges(v):
                w = e.other_endpoint(v)
                if w not in tree_edge and w is not DANGLING:
                    tree_edge[w] = e
                    order.append(w)

    tree = {e.id for e in tree_edge.values() if e is not None}
    below = dict.fromkeys(graph.vertices, 0)  # XOR of the non-tree labels at a vertex
    labels: dict[int, int] = {}
    bit = 1
    for e in graph.edges:
        if e.id in tree or e.a is DANGLING or e.b is DANGLING or e.a == e.b:
            continue
        labels[e.id] = bit
        below[e.a] ^= bit
        below[e.b] ^= bit
        bit <<= 1
    for v in reversed(order):  # the tree edge above v: the XOR over its subtree
        e = tree_edge[v]
        if e is not None:
            labels[e.id] = below[v]
            below[e.other_endpoint(v)] ^= below[v]
    return labels


def _smallest_label_cut(ends: dict[int, int], look_for_5: bool) -> Optional[int]:
    """Smallest k in 3..5 for k edges, no two meeting, with labels XOR zero; else None.

    ``ends`` maps distinct nonzero labels to the end bits of their edges.
    The third edge of a 3-set is one lookup of the XOR of the other two.
    For 4- and 5-sets, one table maps the XOR of the labels of each pair of
    edges that do not meet to the end bits of such pairs; two different
    pairs with one XOR share no edge.  A 4-set is two pairs in one entry
    and a 5-set a triple whose XOR has a pair in the table, when all their
    ends differ.  5-sets are looked for only when ``look_for_5``.
    """
    for (x, s), (y, t) in combinations(ends.items(), 2):
        u = ends.get(x ^ y)
        if u is not None and not (s & t or (s | t) & u):
            return 3
    pairs: dict[int, list[int]] = {}
    for (x, s), (y, t) in combinations(ends.items(), 2):
        if not s & t:
            entry = pairs.setdefault(x ^ y, [])
            if any(not (s | t) & other for other in entry):
                return 4
            entry.append(s | t)
    if not look_for_5:
        return None
    for (x, s), (y, t), (z, u) in combinations(ends.items(), 3):
        if not (s & t or (s | t) & u):
            if any(not (s | t | u) & other for other in pairs.get(x ^ y ^ z, ())):
                return 5
    return None


def _min_cut_over_cycle_pairs(
    graph: CubicGraph, cycles: list[frozenset[int]], lower: int
) -> Optional[int]:
    """Smallest max-flow between two disjoint cycles; None without such a pair.

    Returns as soon as a cut of size ``lower`` is found, since none is
    smaller.  Vertices are renumbered 0..n-1 once.
    """
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in index]
    edge_count = 0
    for e in graph.edges:  # no loops: the other edge at a loop's vertex is a bridge
        x, y = index[e.a], index[e.b]
        arcs[x].append((edge_count, y, 1))
        arcs[y].append((edge_count, x, -1))
        edge_count += 1

    members = [[index[v] for v in c] for c in sorted(cycles, key=len)]
    masks = [sum(1 << x for x in c) for c in members]  # vertex bit sets

    best: Union[int, float] = math.inf
    for i, cycle in enumerate(members):
        for j in range(i + 1, len(members)):
            if masks[i] & masks[j]:
                continue
            best = _max_flow(arcs, edge_count, cycle, masks[j], best)
            if best == lower:
                return lower
    return None if best is math.inf else int(best)


def _max_flow(
    arcs: list[list[tuple[int, int, int]]],
    edge_count: int,
    sources: list[int],
    sink_mask: int,
    cap: Union[int, float],
) -> Union[int, float]:
    """Unit-capacity max-flow from a vertex set to a disjoint one, or ``cap``.

    ``arcs[x]`` lists ``(edge, y, sign)`` for every edge between x and y;
    ``flow[edge]`` is +1 or -1 when the edge carries flow in the direction
    of sign +1 or -1.  Augmentation stops once the flow reaches ``cap``,
    in which case ``cap`` is returned.
    """
    flow = [0] * edge_count
    value = 0
    while value < cap:
        # BFS from all sources at once, which contracts them to one terminal
        prev: list = [None] * len(arcs)
        for x in sources:
            prev[x] = ()
        queue = list(sources)
        end = -1
        for x in queue:
            for k, y, sign in arcs[x]:
                if prev[y] is None and sign * flow[k] < 1:
                    prev[y] = (k, sign, x)
                    if sink_mask >> y & 1:
                        end = y
                        break
                    queue.append(y)
            if end >= 0:
                break
        if end < 0:
            return value
        step = prev[end]
        while step:
            k, sign, x = step
            flow[k] += sign
            step = prev[x]
        value += 1
    return cap


def chordless_cycles(graph: CubicGraph) -> list[frozenset[int]]:
    """Vertex sets of all chordless cycles; loops and parallel pairs included."""
    out = list(dict.fromkeys(frozenset((e.a,)) for e in graph.edges if e.is_loop))
    pair_mult: dict[frozenset[int], int] = {}
    for e in graph.edges:
        reals = e.real_endpoints()
        if len(reals) == 2 and reals[0] != reals[1]:
            key = frozenset(reals)
            pair_mult[key] = pair_mult.get(key, 0) + 1
    out += [key for key, mult in pair_mult.items() if mult >= 2]

    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for key in pair_mult:
        x, y = tuple(key)
        adj[x].add(y)
        adj[y].add(x)

    # simple chordless cycles of length >= 3, anchored at their smallest vertex
    # and each closed once, towards the smaller of its two neighbours there;
    # each open path carries the bit set of its interior's neighbours
    around = {v: sum(1 << w for w in adj[v]) for v in adj}
    ordered = {v: sorted(adj[v]) for v in adj}
    for s in sorted(graph.vertices):
        firsts = [x for x in ordered[s] if x > s]
        for first in firsts:
            stack = [([s, first], 0)]
            while stack:
                path, blocked = stack.pop()
                last = path[-1]
                for u in ordered[last]:
                    if u <= s or u in path:
                        continue
                    # a chord to the interior rules u out entirely
                    if blocked >> u & 1:
                        continue
                    if s in adj[u]:
                        if path[1] < u:
                            out.append(frozenset(path + [u]))
                        continue  # extending past u would leave a chord to s
                    stack.append((path + [u], blocked | around[last]))
    return out
