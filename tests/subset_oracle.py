"""The subset bound in its Euler-characteristic-and-link form.

`conditions` computes every subset margin from the face-corner table; this
module keeps the textbook form 2*pi*chi(F_I) - sum over link pairs of
(pi - weight), cell by cell, as the reference the fast path is tested
against.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SubcomplexStats:
    """Cells spanned by a vertex subset, plus the (edge, vertex) link pairs.

    A link pair (e, v) has v in the subset, both endpoints of e outside it,
    and some face containing both; pairs are listed once per witnessing face.
    """

    vertex_count: int
    edge_count: int
    face_count: int
    euler_char: int
    link_pairs: tuple


def subcomplex_and_link(mesh, subset) -> SubcomplexStats:
    inside = frozenset(int(v) for v in subset)
    if not inside or not inside <= set(range(mesh.vertex_count)):
        raise ValueError("subset must be a nonempty set of vertex ids")
    e_in = sum(1 for e in mesh.edges if e.a in inside and e.b in inside)
    f_in = 0
    pairs = []
    for face in mesh.faces:
        i, j, k = face.vertices
        ins = (i in inside, j in inside, k in inside)
        if all(ins):
            f_in += 1
            continue
        for s in range(3):
            if ins[s] and not ins[(s + 1) % 3] and not ins[(s + 2) % 3]:
                pairs.append((face.edges[s], face.vertices[s]))
    v_in = len(inside)
    return SubcomplexStats(
        vertex_count=v_in,
        edge_count=e_in,
        face_count=f_in,
        euler_char=v_in - e_in + f_in,
        link_pairs=tuple(pairs),
    )


def oracle_bound(mesh, subset) -> float:
    stats = subcomplex_and_link(mesh, subset)
    link = math.fsum(math.pi - mesh.edges[e].weight for e, _v in stats.link_pairs)
    return 2.0 * math.pi * stats.euler_char - link
