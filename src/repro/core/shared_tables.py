"""Sharing successor tables across processes through table stores.

The table kernel (:mod:`repro.core.table_kernel`) answers everything about a
state space from a handful of flat NumPy arrays, and a table store
(:mod:`repro.core.sharded_tables`) is those arrays as ``.npy`` files.  The
parent builds a table once, :func:`publish_table` hands out a picklable
:class:`TableHandle` naming a store directory, and every worker process
:func:`attach_table`-s read-only views of the mapped files — no per-worker
rebuild, no per-chunk pickling of megabyte arrays; the page cache is the
shared memory.

A table that already lives in a store (a shard store, or an in-RAM table
persisted under ``REPRO_TABLE_CACHE``) is published as that store, with no
copy.  Any other table is written to a private ``repro_tbl_<hex>`` directory
under ``/dev/shm`` (the system temp dir where there is none), which the
publisher owns: it must call :func:`unpublish_table` (the batch runner and
the service do so in ``finally`` blocks) to remove it.  Workers
only map: a mapping stays valid after its files are removed.
"""
from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from dataclasses import dataclass
from typing import Dict

from ..obs import event as _obs_event
from ..obs import get_logger
from ..obs import metrics as _obs
from .sharded_tables import ShardedSuccessorTable, open_table_store, write_table_store
from .table_kernel import SuccessorTable

_LOG = get_logger("core.shared_tables")

__all__ = ["TableHandle", "publish_table", "attach_table", "unpublish_table"]


@dataclass(frozen=True)
class TableHandle:
    """Picklable pointer to one published table store.

    ``owned`` marks a private copy the publisher removes on
    :func:`unpublish_table`; a persistent store outlives the pool.
    """

    directory: str
    algorithm_name: str
    size: int
    owned: bool


#: Tables this process attached (store directory -> table).  Memoized so a
#: worker maps each store once however many chunks it executes.
_ATTACHED: Dict[str, SuccessorTable] = {}


def _private_root() -> str:
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def publish_table(table: SuccessorTable, algorithm_name: str) -> TableHandle:
    """The handle workers pass to :func:`attach_table` to share ``table``.

    Reuses the table's own store when it has one; otherwise writes a private
    store the caller must :func:`unpublish_table` once the workers are gone.
    """
    directory = table.directory
    owned = directory is None
    if owned:
        name = f"repro_tbl_{uuid.uuid4().hex[:12]}"
        directory = write_table_store(table, os.path.join(_private_root(), name))
    _obs.counter("shm.segments_published").inc()
    _obs_event("shm.publish", directory=directory, owned=owned, size=table.view.size)
    _LOG.debug("published %s (n=%d, owned=%s)", directory, table.view.size, owned)
    return TableHandle(directory, algorithm_name, table.view.size, owned)


def attach_table(handle: TableHandle) -> SuccessorTable:
    """Open the store behind ``handle`` and register it on the worker algorithm.

    The arrays are read-only views of the mapped files; the Python-side
    lookup dictionaries rebuild lazily on first use (most workers never need
    them).  The table is memoized on the process's shared instance of the
    algorithm (``_successor_tables``, or ``_sharded_tables`` for a shard
    store), which is where :func:`~repro.core.table_kernel.scoped_table` and
    the engine's table dispatch look.  Memoized per store: a worker pays the
    mapping once per process.
    """
    table = _ATTACHED.get(handle.directory)
    if table is None:
        table = _ATTACHED[handle.directory] = open_table_store(handle.directory, handle.size)
        _obs.counter("shm.segments_attached").inc()
        _LOG.debug("attached %s", handle.directory)
    from .runner import worker_algorithm  # late: avoids an import cycle

    algorithm = worker_algorithm(handle.algorithm_name)
    memo = "_sharded_tables" if isinstance(table, ShardedSuccessorTable) else "_successor_tables"
    tables = getattr(algorithm, memo, None)
    if tables is None:
        tables = {}
        setattr(algorithm, memo, tables)
    tables.setdefault(handle.size, table)
    return table


def unpublish_table(handle: TableHandle) -> None:
    """Remove a private store this process published (idempotent)."""
    if handle.owned and os.path.isdir(handle.directory):
        shutil.rmtree(handle.directory, ignore_errors=True)
        _obs_event("shm.unlink", directory=handle.directory)
        _LOG.debug("unpublished %s", handle.directory)
