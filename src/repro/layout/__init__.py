"""Hierarchical layout database: layers, cells, references, libraries."""

from repro.layout.layer import Layer
from repro.layout.cell import Cell, CellReference
from repro.layout.library import Layout

__all__ = [
    "Layer",
    "Cell",
    "CellReference",
    "Layout",
    "StoreView",
    "StoreLayer",
    "StoreRects",
    "ensure_store",
    "ingest",
    "write_store",
    "run_store",
    "open_store",
    "close_store",
    "LayoutStoreError",
    "LayoutStoreVersionError",
]

_STORE_NAMES = frozenset(__all__[4:])


def __getattr__(name: str):
    # The out-of-core store imports the GDSII layer, which imports this
    # package for Cell/Layer — resolve lazily to keep the import acyclic.
    if name in _STORE_NAMES:
        from repro.layout import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
