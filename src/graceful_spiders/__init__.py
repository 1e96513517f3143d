"""Constructive graceful labelings of spider trees.

Builders for four constructive routes (path attachment, iterative doubling
spiders, closed-form short-leg spiders, alpha-amalgamation), closed-form
path labeling providers, and a brute-force oracle that certifies every
output.
"""

from .model import (
    AlphaLabeling,
    ConstructionTrace,
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
    "ConstructionTrace",
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
