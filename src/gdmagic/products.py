"""Lexicographic, direct, and Cartesian graph products.

All three share one vertex numbering: the pair (i, j) with i a vertex of the
left factor and j a vertex of the right factor gets id i * |V(H)| + j. Block
i is the copy of H sitting over vertex i, so every labeler and the verifier
agree on which physical vertex carries which block/twin role.

In the lexicographic and direct products, twins of H (vertices with equal
neighbourhoods) stay twins within a block, so those two products build one
frozenset per distinct neighbourhood of the factors' twin-class records
(``Graph.twin_classes``) and share it among the twins: a
balanced H halves the sets built and held. The returned graph equals, by
value, the one built vertex by vertex.

A ``FactoredProduct`` holds a lex or dir product as its two factors, unbuilt:
the verifier sums its weights from the factors, and builds nothing.
"""

from __future__ import annotations

from .graphs import Graph

__all__ = ["lex_product", "direct_product", "cartesian_product",
           "FactoredProduct"]


def lex_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i ~ i' in g, or i = i' and j ~ j' in h.

    Block i holds one set per distinct neighbourhood of h."""
    hn = h.n
    distinct, index, _ = h.twin_classes
    adj = []
    for i in range(g.n):
        outer = frozenset(v for ip in g.adj[i]
                          for v in range(ip * hn, ip * hn + hn))
        shared = [outer.union([i * hn + jp for jp in nbrs])
                  for nbrs in distinct]
        adj.extend(map(shared.__getitem__, index))
    return Graph(g.n * hn, tuple(adj))


def direct_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i ~ i' in g and j ~ j' in h.

    One set is built per pair of a distinct neighbourhood of g and one of h."""
    hn = h.n
    g_distinct, g_index, _ = g.twin_classes
    h_distinct, h_index, _ = h.twin_classes
    shared = [[frozenset(ip * hn + jp for ip in g_nbrs for jp in h_nbrs)
               for h_nbrs in h_distinct] for g_nbrs in g_distinct]
    return Graph(g.n * hn, tuple(
        row[c] for row in map(shared.__getitem__, g_index) for c in h_index))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """(i,j) ~ (i',j') when i = i' and j ~ j', or j = j' and i ~ i'."""
    hn = h.n
    return Graph(g.n * hn, tuple(
        frozenset([i * hn + jp for jp in h.adj[j]]
                  + [ip * hn + j for ip in g.adj[i]])
        for i in range(g.n) for j in range(hn)))


class FactoredProduct:
    """G ∘ H (``kind`` "lex") or G × H ("dir") held as its factors g and h:
    ``n`` is the product's vertex count, and ``build()`` the product."""

    __slots__ = ("kind", "g", "h", "n")

    def __init__(self, kind: str, g: Graph, h: Graph):
        self.kind, self.g, self.h, self.n = kind, g, h, g.n * h.n

    def build(self) -> Graph:
        build = lex_product if self.kind == "lex" else direct_product
        return build(self.g, self.h)
