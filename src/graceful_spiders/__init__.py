"""Constructive graceful labelings of spider trees.

Builders for four constructive routes (path attachment, iterative doubling
spiders, closed-form short-leg spiders, alpha-amalgamation) and closed-form
path labeling providers, each certifying its output once through
`model.certified`, plus a brute-force oracle: the independent search that
the tests check the constructions against.
"""

from .model import (
    AlphaLabeling,
    Labeling,
    Spider,
    Tree,
    alpha_flip,
    alpha_index,
    build_spider,
    edge_label,
    is_graceful,
    path_tree,
)

__all__ = [
    "AlphaLabeling",
    "Labeling",
    "Spider",
    "Tree",
    "alpha_flip",
    "alpha_index",
    "build_spider",
    "edge_label",
    "is_graceful",
    "path_tree",
]
