"""The table store: the one on-disk format and the one cross-process sharing path.

A **store** is a directory of ``.npy`` files plus a ``manifest.json`` that is
written last (atomically) and records every file's byte size.  A directory
without a valid manifest is an aborted build; a file whose size disagrees
with the manifest is a torn write.  Either way the store is rebuilt, never
trusted.  Stores are built in a temporary sibling directory and renamed into
place, so concurrent builders never touch each other's files: the first
rename wins and the others discard their copies.

Both tiers build through one pipeline — enumerate → geometry → decisions →
resolve, the shared passes of :mod:`repro.core.table_kernel` — and open or
build their stores through one path (:func:`_open_or_build`).  They differ
only in where the arrays go, which gives two layouts of the one format:

* **No shards** — an in-RAM :class:`~repro.core.table_kernel.SuccessorTable`
  written whole (:func:`write_table_store`): every
  :data:`~repro.core.table_kernel.VIEW_ARRAY_FIELDS` and
  :data:`~repro.core.table_kernel.SUCC_ARRAY_FIELDS` array is one global
  file.  ``successor_table(disk_cache=...)`` persists and reloads through it,
  and :mod:`repro.core.shared_tables` publishes in-RAM tables to worker
  processes as such a store.
* **Sharded** — the out-of-core tier past the RAM bound
  (:func:`~repro.core.table_kernel.max_table_size`, n=10 with 362,671 rows),
  built by :func:`build_sharded_table` without ever holding a ``ViewTable``.
  The configuration space is partitioned into fixed-size shards; the wide
  per-row payloads (canonical positions, per-robot move codes) are per-shard
  files, and only the narrow functional-graph arrays — kind / succ / mover
  bits / collision codes / gathered / diameters, ~19 bytes per row — stay
  resident.  Cross-shard successor pointers are *global* row numbers
  resolved during the build through one
  :class:`~repro.core.table_kernel.CanonicalIndex` over the whole space, so
  the facade's functional graph is exactly the monolithic table's.

:class:`ShardedSuccessorTable` subclasses ``SuccessorTable`` and answers the
same API — FSYNC execution, :meth:`~SuccessorTable.batch_outcomes` sweeps,
:meth:`~SuccessorTable.fsync_verdict` censuses, SSYNC
:meth:`~SuccessorTable.expand_rows` slicing — streaming shard files through a
small LRU of open memmaps, so the working set stays bounded however large
the space is.  Byte identity with the in-RAM table for every size both tiers
cover is property-tested (``tests/test_sharded_tables.py``).

Readers map the files read-only; the page cache is the shared memory.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from ..grid.packing import pack_nodes, unpack_nodes
from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import record_span as _obs_record_span
from .algorithm import GatheringAlgorithm
from .table_kernel import (
    _BUILD_BLOCK,
    _TABLE_CACHE_ENV,
    RESOLVED_FIELDS,
    SUCC_ARRAY_FIELDS,
    VIEW_ARRAY_FIELDS,
    CanonicalIndex,
    SuccessorTable,
    ViewTable,
    _decision_pass,
    _geometry_pass,
    _resolve_pass,
    record_peak_rss,
    register_view_table,
    sharded_max_table_size,
)

_LOG = get_logger("core.sharded_tables")

_T = TypeVar("_T")

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "SHARD_FORMAT",
    "ShardedTableError",
    "ShardedSuccessorTable",
    "cache_key",
    "sharded_table_dir",
    "table_store_dir",
    "build_sharded_table",
    "write_table_store",
    "open_sharded_table",
    "open_table_store",
    "sharded_successor_table",
]

#: Rows per shard.  65536 rows keep the widest per-shard payload (positions,
#: ``4n`` bytes/row) under ~3 MB at n=10 while the whole space still splits
#: into single-digit shard counts; override with ``REPRO_TABLE_SHARD_ROWS``.
DEFAULT_SHARD_ROWS = 65536

#: Environment variable overriding the shard row count (tests force tiny
#: shards through it to exercise boundary handling).
_SHARD_ROWS_ENV = "REPRO_TABLE_SHARD_ROWS"

#: Bumped whenever the on-disk layout changes; mismatched directories are
#: rebuilt (the shard store is a cache, never a source of truth).
SHARD_FORMAT = 1

#: Open shard handles kept per table: bounds file descriptors, not memory —
#: the mappings are demand-paged, so an evicted-and-reopened shard only costs
#: a page fault per touched row.
_MAX_OPEN_SHARDS = 8

#: Narrow global arrays resident in RAM (name -> dtype), in manifest order.
_GLOBAL_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("kind", "int8"),
    ("succ", "int32"),
    ("mover_bits", "int16"),
    ("mover_count", "int16"),
    ("collision_code", "int8"),
    ("gathered", "bool"),
    ("diameters", "int64"),
)

#: Wide per-shard memmapped payloads (name -> dtype).
_SHARD_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("positions", "int16"),
    ("move_code", "int8"),
)


class ShardedTableError(RuntimeError):
    """A store directory is missing, incomplete, stale or corrupt."""


# ---------------------------------------------------------------------------
# Layout.
# ---------------------------------------------------------------------------

_SANITIZE = re.compile(r"[^A-Za-z0-9._-]+")


def cache_key(algorithm: GatheringAlgorithm) -> str:
    """Stable file-name fingerprint of an algorithm's decisions.

    The digest covers the registry name, the package version and the
    algorithm's optional ``cache_fingerprint`` (a content hash set by
    algorithms whose behaviour is data-driven, e.g. a synthesized rule set) —
    so a store built under one semantics is never opened by another.  A
    release bump conservatively invalidates every store; stores are a cache
    and rebuild on demand.
    """
    from .. import __version__  # late: the package initializes core first

    name = algorithm.name
    fingerprint = getattr(algorithm, "cache_fingerprint", "")
    digest = hashlib.sha256(
        f"{name}\x00{__version__}\x00{fingerprint}".encode("utf-8")
    ).hexdigest()[:8]
    safe = _SANITIZE.sub("_", name).strip("_") or "algorithm"
    return f"{safe}.r{algorithm.visibility_range}.{digest}"


def _cache_root(cache_dir: Optional[str]) -> str:
    """The directory shard stores live under (arg > env > tempdir)."""
    root = cache_dir or os.environ.get(_TABLE_CACHE_ENV)
    if not root:
        root = os.path.join(tempfile.gettempdir(), "repro-table-cache")
    return root


def default_shard_rows() -> int:
    """The configured rows-per-shard (``REPRO_TABLE_SHARD_ROWS`` or default)."""
    env = os.environ.get(_SHARD_ROWS_ENV)
    return int(env) if env else DEFAULT_SHARD_ROWS


def sharded_table_dir(
    algorithm: GatheringAlgorithm,
    size: int,
    shard_rows: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> str:
    """Shard-store directory of one (algorithm fingerprint, size, shard size).

    The name embeds the algorithm's :func:`cache_key`, so a release bump or
    a changed rule set can never adopt stale shards; CI keys its
    ``actions/cache`` entry on the same inputs.
    """
    rows = shard_rows if shard_rows is not None else default_shard_rows()
    return os.path.join(
        _cache_root(cache_dir), f"shards-{cache_key(algorithm)}-n{size}-r{rows}"
    )


def table_store_dir(
    algorithm: GatheringAlgorithm, size: int, cache_dir: Optional[str] = None
) -> str:
    """Store directory of one in-RAM (algorithm fingerprint, size) table."""
    return os.path.join(_cache_root(cache_dir), f"table-{cache_key(algorithm)}-n{size}")


def _shard_file(directory: str, shard: int, field: str) -> str:
    return os.path.join(directory, f"shard-{shard:04d}-{field}.npy")


def _global_file(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.npy")


def _save_array(path: str, array: "np.ndarray") -> None:
    """Atomic ``np.save`` (tmp + rename), contiguous layout."""
    temporary = f"{path}.tmp.{os.getpid()}"
    with open(temporary, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
    os.replace(temporary, path)


def _map_array(path: str) -> "np.ndarray":
    """A read-only view of one ``.npy`` file's memory map.

    ``np.asarray`` drops the ``np.memmap`` subclass: indexing a memmap costs
    about five times a plain array's per scalar and ten times per slice, and
    the SSYNC expander indexes once per vertex.  The view keeps the mapping
    alive.
    """
    return np.asarray(np.load(path, mmap_mode="r", allow_pickle=False))


def _write_manifest(directory: str, **fields) -> int:
    """Write ``manifest.json`` last and atomically; returns the payload bytes.

    Its presence marks the store complete; its per-file byte sizes are the
    corruption check.
    """
    files = {
        entry: os.path.getsize(os.path.join(directory, entry))
        for entry in sorted(os.listdir(directory))
    }
    manifest = dict(fields, format=SHARD_FORMAT, files=files)
    temporary = os.path.join(directory, f"manifest.json.tmp.{os.getpid()}")
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=1)
    os.replace(temporary, os.path.join(directory, "manifest.json"))
    return sum(files.values())


def _install_store(directory: str, fill: Callable[[str], _T]) -> _T:
    """Build a store with ``fill(staging)`` in a sibling, then rename it in.

    The rename is atomic, so concurrent builders of one store never see or
    delete each other's files.  When a valid store is already in place (a
    concurrent builder won), the staging copy is discarded; an invalid one
    is moved aside and replaced.  Returns what ``fill`` returned.
    """
    parent = os.path.dirname(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{os.path.basename(directory)}.", dir=parent)
    try:
        result = fill(staging)
        for _ in range(8):
            try:
                os.rename(staging, directory)
                return result
            except OSError:
                pass  # ``directory`` exists and is not empty
            try:
                _read_manifest(directory)
                return result
            except ShardedTableError:
                aside = f"{staging}.stale"
                try:
                    os.rename(directory, aside)
                except OSError:
                    continue  # another builder moved it first
                shutil.rmtree(aside, ignore_errors=True)
        raise ShardedTableError(f"could not install a store at {directory}")
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_table_store(table: SuccessorTable, directory: str) -> str:
    """Persist an in-RAM table as a store with no shards; returns ``directory``."""
    vt = table.view

    def fill(staging: str) -> None:
        for field in VIEW_ARRAY_FIELDS:
            _save_array(_global_file(staging, field), getattr(vt, field))
        for field in SUCC_ARRAY_FIELDS:
            _save_array(_global_file(staging, field), getattr(table, field))
        _write_manifest(
            staging,
            size=vt.size,
            visibility_range=vt.visibility_range,
            rows=vt.count,
            shard_rows=0,
            shards=0,
        )

    _install_store(directory, fill)
    return directory


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------

def build_sharded_table(
    algorithm: GatheringAlgorithm,
    size: int,
    directory: str,
    shard_rows: Optional[int] = None,
) -> str:
    """Build (or rebuild) one shard store on disk; returns the directory.

    The in-RAM table's pipeline, spilled to disk instead of kept resident:

    1. **Enumerate** — the memoized
       :func:`~repro.enumeration.polyhex.canonical_positions` array, already
       in the monolithic row order.
    2. **Geometry** — the shared geometry pass (view bitmasks / diameters /
       gathering flags); positions spill to the shard files and the int8
       canonical-index blocks to ``index_pos8``.
    3. **Compute** — the union of unique views resolves through the shared
       decision pass (the only ``algorithm.compute`` cost), then each shard's
       per-robot move codes are one gather + spill.
    4. **Resolve** — the shared resolve pass with the *global* canonical
       index as the successor lookup, which is what turns cross-shard
       successors into plain global row numbers.

    Never constructs a ``ViewTable`` (the point is to stay out of the in-RAM
    tier's scope check) and never builds a Python-side lookup dictionary.
    The files are written into a temporary sibling that is renamed into
    place (see :func:`_install_store`).
    """
    rows_per_shard = shard_rows if shard_rows is not None else default_shard_rows()
    if rows_per_shard < 1:
        raise ValueError("shard_rows must be at least 1")
    build_start = time.perf_counter()
    summary = _install_store(
        directory,
        lambda staging: _fill_sharded_store(algorithm, size, staging, rows_per_shard),
    )

    elapsed = time.perf_counter() - build_start
    disk_bytes = summary["disk_bytes"]
    _obs.counter("table.shard_builds").inc()
    _obs.gauge("table.shard_disk_bytes").set(disk_bytes)
    record_peak_rss()
    _obs_record_span(
        "table.shard_build",
        elapsed,
        size=size,
        rows=summary["rows"],
        shards=summary["shards"],
        shard_rows=rows_per_shard,
        disk_bytes=disk_bytes,
    )
    _LOG.info(
        "built shard store %s: n=%d rows=%d shards=%d (%.1f MB) in %.1fs",
        directory, size, summary["rows"], summary["shards"], disk_bytes / 1e6, elapsed,
    )
    return directory


def _fill_sharded_store(
    algorithm: GatheringAlgorithm, size: int, directory: str, rows_per_shard: int
) -> Dict[str, int]:
    """The four build passes of :func:`build_sharded_table`, into ``directory``."""
    from ..enumeration.polyhex import canonical_positions  # late: avoids an import cycle

    visibility_range = algorithm.visibility_range

    # Pass 1: enumerate (sorted, memoized).
    positions = canonical_positions(size)
    rows = len(positions)
    shards = -(-rows // rows_per_shard)

    # Pass 2: geometry, shard spill, canonical index.
    views, diameters, gathered = _geometry_pass(positions, visibility_range)
    pos8 = np.lib.format.open_memmap(
        _global_file(directory, "index_pos8"), mode="w+", dtype=np.int8, shape=(rows, 2 * size)
    )
    for start in range(0, rows, _BUILD_BLOCK):
        stop = min(start + _BUILD_BLOCK, rows)
        pos8[start:stop] = positions[start:stop].astype(np.int8).reshape(stop - start, -1)
    pos8.flush()
    for shard in range(shards):
        lo, hi = shard * rows_per_shard, min((shard + 1) * rows_per_shard, rows)
        _save_array(_shard_file(directory, shard, "positions"), positions[lo:hi])
    index = CanonicalIndex(pos8)
    _save_array(_global_file(directory, "index_hash"), index.hashes)
    _save_array(_global_file(directory, "index_order"), index.order)

    # Pass 3: decisions over the unique-view union, then per-shard move codes.
    unique_views = np.unique(views)
    codes = _decision_pass(algorithm, unique_views)
    move_code = codes[np.searchsorted(unique_views, views)]
    for shard in range(shards):
        lo, hi = shard * rows_per_shard, min((shard + 1) * rows_per_shard, rows)
        _save_array(_shard_file(directory, shard, "move_code"), move_code[lo:hi])

    # Pass 4: resolution against the global canonical index.
    dtypes = dict(_GLOBAL_FIELDS)
    resolved = tuple(np.empty(rows, dtype=dtypes[name]) for name in RESOLVED_FIELDS)
    _resolve_pass(positions, move_code, gathered, index.lookup, resolved)
    globals_by_name = dict(zip(RESOLVED_FIELDS, resolved), gathered=gathered, diameters=diameters)
    for name, _ in _GLOBAL_FIELDS:
        _save_array(_global_file(directory, name), globals_by_name[name])
    _save_array(_global_file(directory, "codes"), codes)
    _save_array(_global_file(directory, "unique_views"), unique_views)

    disk_bytes = _write_manifest(
        directory,
        size=size,
        visibility_range=visibility_range,
        rows=rows,
        shard_rows=rows_per_shard,
        shards=shards,
    )
    return {"rows": rows, "shards": shards, "disk_bytes": disk_bytes}


# ---------------------------------------------------------------------------
# The facade.
# ---------------------------------------------------------------------------

class _ShardedViewAdapter:
    """The slice of the ``ViewTable`` API the streaming facade needs.

    Narrow per-row arrays (gathered / diameters) resident, canonical lookups
    answered from the memmapped global index.  Deliberately has no
    ``packed`` / ``packed_index`` — the Python-side lookups are exactly what
    the sharded tier exists to avoid; row-to-packed goes through
    :meth:`ShardedSuccessorTable.packed_of_row` instead.
    """

    def __init__(
        self,
        size: int,
        visibility_range: int,
        count: int,
        gathered: "np.ndarray",
        diameters: "np.ndarray",
        index: CanonicalIndex,
    ) -> None:
        self.size = size
        self.visibility_range = visibility_range
        self.count = count
        self.gathered = gathered
        self.diameters = diameters
        self.canonical_index = index

    # All three read only ``size`` and ``canonical_index``.
    rows_of_canonical = ViewTable.rows_of_canonical
    row_of_nodes = ViewTable.row_of_nodes
    rows_of_positions = ViewTable.rows_of_positions


class _ShardField:
    """Row-indexed view over one per-shard memmapped payload field."""

    def __init__(self, table: "ShardedSuccessorTable", field: str) -> None:
        self._table = table
        self._field = field

    def __getitem__(self, row: int) -> "np.ndarray":
        shard, local = divmod(int(row), self._table.shard_rows)
        return self._table._shard_arrays(shard)[self._field][local]

    def __len__(self) -> int:
        return self._table.view.count


class ShardedSuccessorTable(SuccessorTable):
    """A ``SuccessorTable`` whose wide payloads stream from shard files.

    The functional-graph arrays (kind / succ / movers / collision / gathered
    / diameters) are plain resident ndarrays, so every inherited traversal —
    :meth:`fsync_summary`, :meth:`batch_outcomes`, :meth:`fsync_verdict`,
    :meth:`walk_outcome` — runs unchanged.  Row
    positions and move codes page in shard-by-shard through a bounded LRU of
    open memmaps, and packed forms are computed on demand from positions
    (``pack_nodes`` canonicalizes, so the result equals the monolithic
    ``view.packed`` entry bit for bit).  Derivation is not supported: shard
    stores are immutable build artifacts.
    """

    def __init__(
        self,
        directory: str,
        manifest: Dict,
        view: _ShardedViewAdapter,
        codes: "np.ndarray",
        globals_by_name: Dict[str, "np.ndarray"],
    ) -> None:
        super().__init__(
            view=view,  # type: ignore[arg-type]
            codes=codes,
            move_code=_ShardField(self, "move_code"),  # type: ignore[arg-type]
            mover_bits=globals_by_name["mover_bits"],
            mover_count=globals_by_name["mover_count"],
            kind=globals_by_name["kind"],
            succ=globals_by_name["succ"],
            collision_code=globals_by_name["collision_code"],
        )
        self.directory = directory
        self.manifest = manifest
        self.shard_rows = int(manifest["shard_rows"])
        self.shards = int(manifest["shards"])
        self._open_shards: "OrderedDict[int, Dict[str, np.ndarray]]" = OrderedDict()

    # ------------------------------------------------------------- shard LRU
    def _shard_arrays(self, shard: int) -> Dict[str, "np.ndarray"]:
        """The open memmaps of one shard (LRU-bounded, demand-paged)."""
        arrays = self._open_shards.get(shard)
        if arrays is not None:
            self._open_shards.move_to_end(shard)
            return arrays
        arrays = {
            field: _map_array(_shard_file(self.directory, shard, field))
            for field, _ in _SHARD_FIELDS
        }
        self._open_shards[shard] = arrays
        _obs.counter("table.shard_opens").inc()
        while len(self._open_shards) > _MAX_OPEN_SHARDS:
            self._open_shards.popitem(last=False)
            _obs.counter("table.shard_evictions").inc()
        return arrays

    # ----------------------------------------------------- storage overrides
    def _row_positions(self, row: int) -> "np.ndarray":
        shard, local = divmod(int(row), self.shard_rows)
        return self._shard_arrays(shard)["positions"][local]

    def packed_of_row(self, row: int) -> int:
        return pack_nodes(
            (int(q), int(r)) for q, r in self._row_positions(row)
        )

    def row_of_packed(self, packed: int) -> Optional[int]:
        # No packed dictionary here: the canonical hash index answers.
        return self.view.row_of_nodes(unpack_nodes(packed))

    def _gather_rows(self, rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        shards = rows // self.shard_rows
        dtypes = dict(_SHARD_FIELDS)
        positions = np.empty((len(rows), self.view.size, 2), dtype=dtypes["positions"])
        move_code = np.empty((len(rows), self.view.size), dtype=dtypes["move_code"])
        for shard in np.unique(shards).tolist():
            take = shards == shard
            local = rows[take] - shard * self.shard_rows
            arrays = self._shard_arrays(shard)
            positions[take] = arrays["positions"][local]
            move_code[take] = arrays["move_code"][local]
        return positions, move_code

    def array_bytes(self) -> int:
        """Resident bytes: the narrow graph arrays + the sorted hash index."""
        own = sum(
            getattr(self, field).nbytes
            for field in (
                "codes", "mover_bits", "mover_count",
                "kind", "succ", "collision_code",
            )
        )
        vt = self.view
        own += vt.gathered.nbytes + vt.diameters.nbytes
        own += vt.canonical_index.hashes.nbytes + vt.canonical_index.order.nbytes
        return own

    def derive(self, overrides, amendments) -> "SuccessorTable":
        raise NotImplementedError(
            "sharded tables are immutable build artifacts; derive against the "
            "in-RAM table and rebuild the shard store for changed rule sets"
        )


# ---------------------------------------------------------------------------
# Open / validate.
# ---------------------------------------------------------------------------

def _read_manifest(directory: str, size: Optional[int] = None) -> Dict:
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ShardedTableError(f"no usable manifest in {directory}: {exc}") from exc
    if manifest.get("format") != SHARD_FORMAT:
        raise ShardedTableError(
            f"shard format {manifest.get('format')!r} != {SHARD_FORMAT} in {directory}"
        )
    if size is not None and manifest.get("size") != size:
        raise ShardedTableError(
            f"shard store {directory} is for n={manifest.get('size')}, wanted n={size}"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        raise ShardedTableError(f"manifest of {directory} lists no files")
    for name, expected in files.items():
        actual_path = os.path.join(directory, name)
        try:
            actual = os.path.getsize(actual_path)
        except OSError as exc:
            raise ShardedTableError(f"missing shard file {actual_path}") from exc
        if actual != expected:
            raise ShardedTableError(
                f"shard file {actual_path} is {actual} bytes, manifest says {expected}"
            )
    return manifest


def open_sharded_table(
    directory: str, size: Optional[int] = None
) -> ShardedSuccessorTable:
    """Open a complete shard store; raises :class:`ShardedTableError` if not.

    Validation is strict — missing manifest (aborted build), format or size
    mismatch (stale layout) and any file whose byte size disagrees with the
    manifest (torn write, truncation) all raise, and the caller rebuilds.
    """
    manifest = _read_manifest(directory, size)
    if not manifest.get("shards"):
        raise ShardedTableError(f"store {directory} has no shards")
    rows = int(manifest["rows"])
    n = int(manifest["size"])
    globals_by_name = {
        name: np.load(_global_file(directory, name), allow_pickle=False)
        for name, _ in _GLOBAL_FIELDS
    }
    codes = np.load(_global_file(directory, "codes"), allow_pickle=False)
    pos8 = _map_array(_global_file(directory, "index_pos8"))
    hashes = np.load(_global_file(directory, "index_hash"), allow_pickle=False)
    order = np.load(_global_file(directory, "index_order"), allow_pickle=False)
    if len(pos8) != rows or any(len(a) != rows for a in globals_by_name.values()):
        raise ShardedTableError(f"array row counts disagree with manifest in {directory}")
    index = CanonicalIndex(pos8, hashes=hashes, order=order)
    view = _ShardedViewAdapter(
        size=n,
        visibility_range=int(manifest["visibility_range"]),
        count=rows,
        gathered=globals_by_name["gathered"],
        diameters=globals_by_name["diameters"],
        index=index,
    )
    table = ShardedSuccessorTable(directory, manifest, view, codes, globals_by_name)
    _obs.counter("table.shard_opens_total").inc()
    return table


def open_table_store(directory: str, size: Optional[int] = None) -> SuccessorTable:
    """Open any complete store read-only; raises :class:`ShardedTableError` if not.

    A sharded store opens as a :class:`ShardedSuccessorTable`.  A store with
    no shards opens as an in-RAM ``SuccessorTable`` over read-only views of
    the mapped files, and its view table is registered process-wide so
    :func:`~repro.core.table_kernel.view_table` answers from it.
    """
    manifest = _read_manifest(directory, size)
    if manifest["shards"]:
        return open_sharded_table(directory, size)
    arrays = {
        field: _map_array(_global_file(directory, field))
        for field in VIEW_ARRAY_FIELDS + SUCC_ARRAY_FIELDS
    }
    vt = ViewTable._from_arrays(
        int(manifest["size"]), int(manifest["visibility_range"]), arrays
    )
    table = SuccessorTable(
        view=register_view_table(vt),
        **{field: arrays[field] for field in SUCC_ARRAY_FIELDS},
    )
    table.directory = directory
    return table


def _open_or_build(
    directory: str,
    size: int,
    open_store: Callable[[str, int], _T],
    build: Callable[[], _T],
) -> _T:
    """``open_store(directory, size)``, or ``build()`` if the store is invalid.

    The one open-or-build path of both tiers.  A directory that exists but
    fails validation is logged and counted (``table.shard_rebuilds``); the
    build replaces it through :func:`_install_store`.
    """
    try:
        return open_store(directory, size)
    except ShardedTableError as exc:
        if os.path.isdir(directory):
            _LOG.warning("rebuilding table store %s: %s", directory, exc)
            _obs.counter("table.shard_rebuilds").inc()
        return build()


# ---------------------------------------------------------------------------
# Memoized access.
# ---------------------------------------------------------------------------

def sharded_successor_table(
    algorithm: GatheringAlgorithm,
    size: int,
    cache_dir: Optional[str] = None,
    shard_rows: Optional[int] = None,
) -> ShardedSuccessorTable:
    """The memoized sharded table of ``algorithm`` over the ``size`` space.

    Mirrors :func:`~repro.core.table_kernel.successor_table`: tables attach
    to the algorithm instance (``algorithm._sharded_tables``), the shard
    store is opened from disk when a complete one exists and built otherwise.
    A store that fails validation — stale format, torn files — is rebuilt,
    never trusted: the build moves it aside and replaces it
    (:func:`_install_store`).
    """
    limit = sharded_max_table_size()
    if not 1 <= size <= limit:
        raise ValueError(
            f"the sharded tier supports 1..{limit} robots within the current "
            f"memory budget, got {size}"
        )
    tables = getattr(algorithm, "_sharded_tables", None)
    if tables is None:
        tables = {}
        algorithm._sharded_tables = tables  # type: ignore[attr-defined]
    table = tables.get(size)
    if table is None:
        directory = sharded_table_dir(algorithm, size, shard_rows, cache_dir)

        def build() -> ShardedSuccessorTable:
            build_sharded_table(algorithm, size, directory, shard_rows)
            return open_sharded_table(directory, size)

        table = tables[size] = _open_or_build(directory, size, open_sharded_table, build)
    return table
