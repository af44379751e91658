"""Byte pins of every edge builder: the sha256 of the edge-list text and of
the compressed-row indices of a graph drawn at a fixed seed.  A change to
how edges are built may change neither the edge set nor its order."""

import hashlib

import numpy as np
import pytest

from netinfer import geom, sbm, trees
from netinfer.graphcore import (Graph, RngStream, parse_edge_list,
                                serialize_edge_list)

BUILDERS = {
    "er-skip": lambda: geom.sample_er(3000, 4 / 3000, RngStream(21)),
    "er-dense": lambda: geom.sample_er(40, 0.3, RngStream(22)),
    "rgg-d2-angles": lambda: geom.sample_rgg(3000, 4 / 3000, 2, RngStream(23)),
    "rgg-d64-chunks": lambda: geom.sample_rgg(2000, 4 / 2000, 64, RngStream(24)),
    "rgg-dense": lambda: geom.sample_rgg(40, 0.3, 64, RngStream(25)),
    "sbm-k3": lambda: sbm.sample_sbm(
        1500, sbm.SbmParams.symmetric(3, 9.0, 1.0), RngStream(26)).graph,
    "tree-ua": lambda: trees.grow("ua", 2000, RngStream(27)),
    "tree-pa": lambda: trees.grow("pa", 2000, RngStream(28)),
}

# (edge count, sha256 of serialize_edge_list, sha256 of csr() indices as <i8)
PINS = {
    "er-skip": (6035, "7fc5ea11c1c019570e04311bb570ea951ef9149ad3e76d21e29b7e82a26564a7",
                "77a97016ab8652991be707f255afbcd8e5219da7989c40c0ab498b019c7f1f02"),
    "er-dense": (222, "ae2f14016e8dc0dfb7157e69b2777f0f6ca17185ad5ee3d1253aedcfa0d70cac",
                 "fe51d6b2939280ad244d0b1d519e9255ea0dea473e8433dd0e9e0bddbe063122"),
    "rgg-d2-angles": (5891, "86da61dcff915277e52308bada44731ac9ff35c4b48023097746e9cd98cc2a4b",
                      "2446adafa8bf864577a6136f097d6dfe7c94f131526b628dd0b9379bd67a5a52"),
    "rgg-d64-chunks": (3976, "ae9944558c19bf6b091a36aefb1783746b9c33ed12d842187dff63f927bc1214",
                       "3a563823ced16c2cd7f9dabbfaeff555b67daaa912ef30e59af3fdff63631562"),
    "rgg-dense": (237, "7cb204f157238464a06d996bf1f01aabd40f99f7deae21d83e9f3db0d481e447",
                  "ed62d3dacbd29e6848f02d79f5f2580e7e290a7de2d457222a12e5eb83d2da71"),
    "sbm-k3": (20104, "d02882929b996d17be9ef877a37c3b599db7a904da79414669a4f788eec70550",
               "9173668a9e3764bf4259fbaa6b7b34dd8efe34691000460dd369bdeb675ec6d2"),
    "tree-ua": (1999, "793516337a2894b92f0b872ab25eba5934f78fb6116edb7d78896204ac3dea1e",
                "fe355573382b53b10f17f56b99559d3b6b9229677d2b08aad667a6550e890d6a"),
    "tree-pa": (1999, "99bdaf2db866e7fa222324c2144431989ebce8edc7fbcbfa1bbff9ecb7bda506",
                "63dcc8458f8e629130d24101c12af364a743c2ad45c045e1e39d24a36e142041"),
}


def _pins(g: Graph) -> tuple:
    indices = np.ascontiguousarray(g.csr()[1], dtype="<i8")
    return (g.m, hashlib.sha256(serialize_edge_list(g).encode()).hexdigest(),
            hashlib.sha256(indices.tobytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_edge_builder_bytes_are_pinned(name):
    assert _pins(BUILDERS[name]()) == PINS[name]


def test_edge_list_round_trips_keep_the_pinned_bytes():
    """Graph.from_edges of the skip-ER edges, shuffled and flipped, and
    parse_edge_list of their text give the skip-ER bytes again."""
    g = BUILDERS["er-skip"]()
    perm = np.random.default_rng(29).permutation(g.m)
    built = Graph.from_edges(g.n, g.edges()[perm][:, ::-1])
    parsed = parse_edge_list(serialize_edge_list(g))
    assert _pins(built) == _pins(parsed) == PINS["er-skip"]
