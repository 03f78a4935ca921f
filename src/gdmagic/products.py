"""Lexicographic, direct, and Cartesian graph products.

All three share one vertex numbering: the pair (i, j) with i a vertex of the
left factor and j a vertex of the right factor gets id i * |V(H)| + j. Block
i is the copy of H sitting over vertex i, so every labeler and the verifier
agree on which physical vertex carries which block/twin role.
"""

from __future__ import annotations

from .graphs import Graph

__all__ = ["lex_product", "direct_product", "cartesian_product"]


def lex_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i ~ i' in g, or i = i' and j ~ j' in h."""
    hn = h.n
    adj = []
    for i in range(g.n):
        outer = frozenset(v for ip in g.adj[i]
                          for v in range(ip * hn, ip * hn + hn))
        adj.extend(outer.union([i * hn + jp for jp in h.adj[j]])
                   for j in range(hn))
    return Graph(g.n * hn, tuple(adj))


def direct_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i ~ i' in g and j ~ j' in h."""
    hn = h.n
    return Graph(g.n * hn, tuple(
        frozenset(ip * hn + jp for ip in g.adj[i] for jp in h.adj[j])
        for i in range(g.n) for j in range(hn)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i = i' and j ~ j', or j = j' and i ~ i'."""
    hn = h.n
    return Graph(g.n * hn, tuple(
        frozenset([i * hn + jp for jp in h.adj[j]]
                  + [ip * hn + j for ip in g.adj[i]])
        for i in range(g.n) for j in range(hn)))
