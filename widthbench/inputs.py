"""Seeded input generation.  Standard library only, so the service
workloads' host process imports nothing the service does not.

A hypergraph is a ``dict`` from edge name to a list of string vertices.
"""

from __future__ import annotations

import random


def random_hypergraph(
    rng: random.Random, n: int, m: int, sizes: tuple[int, int], tag: str
) -> dict:
    """``m`` edges with ``sizes[0]..sizes[1]`` members each over ``n``
    vertices labelled ``<tag><i>``, redrawn until no vertex is isolated."""
    vertices = [f"{tag}{i}" for i in range(n)]
    while True:
        edges = {
            f"{tag}e{j}": rng.sample(vertices, rng.randint(*sizes))
            for j in range(m)
        }
        if len({v for members in edges.values() for v in members}) == n:
            return edges


def signature(edges: dict) -> tuple:
    """An isomorphism invariant: equal for isomorphic inputs, so inputs
    with distinct signatures are pairwise non-isomorphic."""
    degree: dict = {}
    for members in edges.values():
        for v in members:
            degree[v] = degree.get(v, 0) + 1
    return (
        len(degree),
        tuple(sorted(
            tuple(sorted(degree[v] for v in members))
            for members in edges.values()
        )),
        tuple(sorted(degree.values())),
    )


def relabelled(edges: dict, rng: random.Random, tag: str) -> dict:
    """An isomorphic copy under fresh vertex labels, fresh edge names
    and a shuffled edge order."""
    vertices = sorted({v for members in edges.values() for v in members})
    fresh = {
        v: f"{tag}{rng.randrange(10**9)}_{i}" for i, v in enumerate(vertices)
    }
    members = [list(m) for m in edges.values()]
    rng.shuffle(members)
    copy = {}
    for j, edge in enumerate(members):
        rng.shuffle(edge)
        copy[f"{tag}e{j}"] = [fresh[v] for v in edge]
    return copy


def string_labelled(hypergraph) -> dict:
    """A ``repro`` Hypergraph as a string-labelled edge dict (registry
    grids label vertices with tuples, which the wire format refuses)."""
    return {
        str(name): [str(v) for v in members]
        for name, members in hypergraph.edges.items()
    }


def cycle(n: int) -> dict:
    return {f"c{i}": [f"c{i}", f"c{(i + 1) % n}"] for i in range(n)}
