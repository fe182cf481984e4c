"""Independent oracles for the width benchmark.

Nothing here imports ``repro``: these checks are a second opinion on the
program's answers, written from the definitions alone.

* :func:`tw_exact` / :func:`ghw_exact` — a subset dynamic program.  The
  bag of vertex ``v`` when it is eliminated after the set ``S`` is
  ``{v}`` plus every vertex outside ``S`` reachable from ``v`` through
  ``S``; it depends only on ``S``, so "some ordering of width <= k
  eliminates exactly ``S`` first" is a property of the set ``S`` and the
  search runs over subsets, not orderings.
* :func:`check_decomposition` — the witness checker: a tree, vertex and
  edge coverage, connectedness, cover width and, for hw witnesses, the
  descendant condition.
* :func:`check_ordering` — an elimination ordering's width, rebuilt into
  a decomposition and put through the checker; it also checks a mapped
  cache-hit ordering on the relabelled copy it was served for.

Run ``python3 widthbench/oracles.py`` for the oracles' own test: known
closed forms, and deliberately corrupted witnesses that must be
rejected.

A hypergraph is a ``dict`` from edge name to a list of vertices; every
vertex lies in some edge.
"""

from __future__ import annotations

import itertools
import math
import sys

import inputs


class Instance:
    """A hypergraph in bitmask form: vertex ``i`` is bit ``i``."""

    def __init__(self, edges: dict):
        self.edge_names = list(edges)
        vertices: dict = {}
        for members in edges.values():
            for v in members:
                vertices.setdefault(v, len(vertices))
        self.vertices = list(vertices)
        self.index = vertices
        self.n = len(self.vertices)
        self.edge_masks = [
            sum(1 << vertices[v] for v in set(members))
            for members in edges.values()
        ]
        self.by_name = dict(zip(self.edge_names, self.edge_masks))
        self.adjacency = [0] * self.n
        for mask in self.edge_masks:
            for i in _bits(mask):
                self.adjacency[i] |= mask & ~(1 << i)
        self._cover_cache: dict[int, tuple] = {}

    def mask_of(self, vertices) -> int:
        return sum(1 << self.index[v] for v in vertices)

    def min_cover(self, mask: int) -> tuple:
        """A smallest set of edge indices whose union contains ``mask``:
        iterative deepening, branching on the edges through the lowest
        uncovered vertex."""
        cached = self._cover_cache.get(mask)
        if cached is None:
            k = 0
            while (cached := self._cover_within(mask, k)) is None:
                k += 1
            self._cover_cache[mask] = cached
        return cached

    def cover_number(self, mask: int) -> int:
        return len(self.min_cover(mask))

    def _cover_within(self, mask: int, k: int):
        if mask == 0:
            return ()
        if k == 0:
            return None
        low = mask & -mask
        for j, edge in enumerate(self.edge_masks):
            if edge & low:
                rest = self._cover_within(mask & ~edge, k - 1)
                if rest is not None:
                    return (j,) + rest
        return None

    def bag_after(self, eliminated: int, v: int) -> int:
        """``{v}`` plus the vertices outside ``eliminated`` that ``v``
        reaches through ``eliminated``."""
        seen = 1 << v
        frontier = 1 << v
        reach = 0
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= self.adjacency[i]
            nxt &= ~seen
            seen |= nxt
            reach |= nxt & ~eliminated
            frontier = nxt & eliminated
        return reach | (1 << v)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminable(inst: Instance, k: int, cost) -> bool:
    """Whether some ordering keeps ``cost(bag) <= k`` for every bag —
    a depth-first search over eliminated sets, each visited once."""
    full = (1 << inst.n) - 1
    dead: set[int] = set()
    stack = [0]
    while stack:
        s = stack.pop()
        if s == full:
            return True
        rest = full & ~s
        for v in _bits(rest):
            t = s | (1 << v)
            if t in dead:
                continue
            if cost(inst.bag_after(s, v)) <= k:
                dead.add(t)
                stack.append(t)
        dead.add(s)
    return False


def tw_exact(edges: dict) -> int:
    """Treewidth of the primal graph, by the subset program."""
    inst = Instance(edges)
    k = 0
    while not _eliminable(inst, k, lambda bag: bin(bag).count("1") - 1):
        k += 1
    return k


def ghw_exact(edges: dict) -> int:
    """Generalized hypertree width, by the subset program with exact
    covers of each bag."""
    inst = Instance(edges)
    k = 1
    while not _eliminable(inst, k, inst.cover_number):
        k += 1
    return k


# ----------------------------------------------------------------------
# Witness checking
# ----------------------------------------------------------------------


def check_decomposition(
    edges: dict,
    nodes: dict,
    tree: list,
    claimed_width=None,
    root=None,
    measure: str = "tw",
) -> list[str]:
    """Problems with a decomposition of ``edges``; empty means valid.

    ``nodes`` maps a node id to ``(bag, cover)``, where ``cover`` is a
    list of edge names (ignored for ``measure="tw"``).  ``measure`` is
    ``"tw"`` (width = largest bag - 1), ``"ghw"`` (width = largest
    cover, each cover containing its bag) or ``"hw"`` (ghw plus the
    descendant condition from ``root``).
    """
    inst = Instance(edges)
    problems: list[str] = []
    ids = list(nodes)
    if not ids:
        return ["decomposition has no nodes"]
    neighbours: dict = {node: set() for node in ids}
    for a, b in tree:
        if a not in neighbours or b not in neighbours:
            problems.append(f"tree edge {a!r}-{b!r} names an unknown node")
            continue
        neighbours[a].add(b)
        neighbours[b].add(a)
    if len(tree) != len(ids) - 1 or len(_reach(ids[0], neighbours)) != len(ids):
        problems.append("the node graph is not a tree")
        return problems
    bags = {}
    for node, (bag, _cover) in nodes.items():
        unknown = [v for v in bag if v not in inst.index]
        if unknown:
            problems.append(f"bag of {node!r} holds unknown vertices")
            return problems
        bags[node] = inst.mask_of(bag)
    covered = 0
    for mask in bags.values():
        covered |= mask
    if covered != (1 << inst.n) - 1:
        problems.append("some vertex is in no bag")
    for name, mask in inst.by_name.items():
        if not any(mask & ~bag == 0 for bag in bags.values()):
            problems.append(f"edge {name!r} lies in no bag")
    for i, v in enumerate(inst.vertices):
        holding = {node for node, bag in bags.items() if bag >> i & 1}
        if holding and len(_reach(next(iter(holding)), neighbours, holding)) != len(holding):
            problems.append(f"the bags holding {v!r} are not connected")
    if measure == "tw":
        width = max(bin(bag).count("1") for bag in bags.values()) - 1
    else:
        width = 0
        for node, (_bag, cover) in nodes.items():
            unknown = [name for name in cover if name not in inst.by_name]
            if unknown:
                problems.append(f"cover of {node!r} names unknown edges")
                return problems
            union = 0
            for name in cover:
                union |= inst.by_name[name]
            if bags[node] & ~union:
                problems.append(f"cover of {node!r} misses part of its bag")
            width = max(width, len(set(cover)))
        if measure == "hw":
            problems.extend(_descendant_problems(inst, nodes, bags, neighbours, root))
    if claimed_width is not None and width > claimed_width:
        problems.append(f"width {width} exceeds the claimed {claimed_width}")
    return problems


def _reach(start, neighbours: dict, allowed=None) -> set:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in neighbours[node]:
            if other not in seen and (allowed is None or other in allowed):
                seen.add(other)
                stack.append(other)
    return seen


def _descendant_problems(inst, nodes, bags, neighbours, root) -> list[str]:
    """For every node p: (union of its cover) ∩ (bags below p) ⊆ bag(p)."""
    if root is None or root not in nodes:
        return ["hw witness has no root"]
    parent = {root: None}
    order = [root]
    for node in order:
        for other in neighbours[node]:
            if other not in parent:
                parent[other] = node
                order.append(other)
    below = {}
    for node in reversed(order):
        mask = bags[node]
        for other in neighbours[node]:
            if parent.get(other) == node:
                mask |= below[other]
        below[node] = mask
    problems = []
    for node, (_bag, cover) in nodes.items():
        union = 0
        for name in cover:
            union |= inst.by_name[name]
        if union & below[node] & ~bags[node]:
            problems.append(f"descendant condition fails at {node!r}")
    return problems


def ordering_decomposition(edges: dict, ordering) -> tuple[dict, list]:
    """Bucket elimination: one node per vertex holding its elimination
    bag, attached to the bag's next-eliminated vertex, with a minimum
    cover of the bag."""
    inst = Instance(edges)
    position = {v: i for i, v in enumerate(ordering)}
    nodes: dict = {}
    tree: list = []
    eliminated = 0
    for v in ordering:
        i = inst.index[v]
        bag = inst.bag_after(eliminated, i)
        eliminated |= 1 << i
        members = [inst.vertices[j] for j in _bits(bag)]
        nodes[v] = (members, [inst.edge_names[j] for j in inst.min_cover(bag)])
        later = [u for u in members if u != v]
        if later:
            tree.append((v, min(later, key=position.__getitem__)))
    # Components of a disconnected input give a forest: chain the roots.
    attached = {a for a, _ in tree}
    roots = [v for v in ordering if v not in attached]
    tree.extend(zip(roots, roots[1:]))
    return nodes, tree


def check_ordering(edges: dict, ordering, claimed_width, measure: str) -> list[str]:
    """Problems with ``ordering`` as a witness of ``claimed_width``
    (``measure`` ``"tw"`` or ``"ghw"``); empty means valid.  The
    ordering must be a permutation of the vertices of ``edges`` — which
    is what a cache hit mapped onto a relabelled copy must satisfy."""
    vertices = {v for members in edges.values() for v in members}
    if ordering is None or len(ordering) != len(vertices) or set(ordering) != vertices:
        return ["ordering is not a permutation of the vertices"]
    nodes, tree = ordering_decomposition(edges, ordering)
    return check_decomposition(edges, nodes, tree, claimed_width, measure=measure)


# ----------------------------------------------------------------------
# The oracles' own test
# ----------------------------------------------------------------------


def _clique(n: int) -> dict:
    return {
        f"e{a}_{b}": [f"k{a}", f"k{b}"]
        for a, b in itertools.combinations(range(n), 2)
    }


def self_test() -> list[str]:
    """Known closed forms and corrupted witnesses; returns failures."""
    failures: list[str] = []
    for n in range(3, 7):
        if tw_exact(_clique(n)) != n - 1:
            failures.append(f"tw(K{n}) != {n - 1}")
        if ghw_exact(_clique(n)) != math.ceil(n / 2):
            failures.append(f"ghw(clique_{n}) != {math.ceil(n / 2)}")
    for n in (4, 5, 8):
        if ghw_exact(inputs.cycle(n)) != 2 or tw_exact(inputs.cycle(n)) != 2:
            failures.append(f"cycle C{n} is not tw 2 / ghw 2")

    # An hw witness of the 4-cycle with chords removed: two nodes.
    square = {"a": ["p", "q"], "b": ["q", "r"], "c": ["r", "s"], "d": ["s", "p"]}
    good = {0: (["p", "q", "r"], ["a", "b"]), 1: (["p", "r", "s"], ["c", "d"])}
    if check_decomposition(square, good, [(0, 1)], 2, root=0, measure="hw"):
        failures.append("a valid hw witness was rejected")
    corrupted = [
        ("dropped vertex", {0: (["p", "q"], ["a", "b"]), 1: (["p", "r", "s"], ["c", "d"])}, [(0, 1)], 2),
        ("short cover", {0: (["p", "q", "r"], ["a"]), 1: (["p", "r", "s"], ["c", "d"])}, [(0, 1)], 2),
        ("overclaim", good, [(0, 1)], 1),
        ("not a tree", good, [], 2),
        # p's bags {0, 2} are split by node 1, which lacks p.
        ("disconnected", {0: (["p", "q", "r"], ["a", "b"]), 1: (["q", "r", "s"], ["b", "c"]),
                          2: (["r", "s", "p"], ["c", "d"])}, [(0, 1), (1, 2)], 2),
    ]
    for label, nodes, tree, width in corrupted:
        if not check_decomposition(square, nodes, tree, width, root=0, measure="hw"):
            failures.append(f"corrupted witness accepted: {label}")
    # Valid as a GHD, but the root's cover {a, c} reaches s below it.
    ghd_only = {0: (["p", "q", "r"], ["a", "c"]), 1: (["p", "r", "s"], ["c", "d"])}
    if check_decomposition(square, ghd_only, [(0, 1)], 2, measure="ghw"):
        failures.append("a valid ghw witness was rejected")
    if not check_decomposition(square, ghd_only, [(0, 1)], 2, root=0, measure="hw"):
        failures.append("descendant-condition violation accepted")

    order = ["p", "q", "r", "s"]
    if check_ordering(square, order, 2, "ghw") or check_ordering(square, order, 2, "tw"):
        failures.append("a valid ordering was rejected")
    if not check_ordering(square, order, 1, "tw"):
        failures.append("an ordering overclaim was accepted")
    if not check_ordering(square, ["p", "q", "r", "r"], 2, "ghw"):
        failures.append("a non-permutation hit ordering was accepted")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print("FAIL:", problem)
    print("oracle self-test:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
