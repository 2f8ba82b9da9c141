"""Unified core IR: the node protocol, traversal engine, caches and rewriting.

Every AST in the system (Δ0 terms, Δ0 formulas, NRC expressions) implements
the :class:`~repro.core.node.Node` protocol; this package supplies the one
traversal/caching/rewriting substrate they all share.  See ARCHITECTURE.md.
"""

from repro.core.node import (
    Node,
    cached_fold,
    fold,
    free_vars,
    map_children,
    node_size,
    transform_bottom_up,
    walk,
)
from repro.core.interning import (
    clear_intern_cache,
    install_hash_cache,
    intern,
    intern_table_size,
)
from repro.core.subst import fresh_name, replace_subtree, substitute
from repro.core.engine import RewriteEngine, RewriteStats

__all__ = [
    "Node",
    "walk",
    "fold",
    "cached_fold",
    "map_children",
    "transform_bottom_up",
    "node_size",
    "free_vars",
    "intern",
    "install_hash_cache",
    "intern_table_size",
    "clear_intern_cache",
    "substitute",
    "replace_subtree",
    "fresh_name",
    "RewriteEngine",
    "RewriteStats",
]
