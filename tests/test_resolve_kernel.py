"""Byte-identity of the one-sort resolve kernel against its pairwise oracle.

``resolve_rows_arrays`` finds collisions from one sort of each row's landing
keys and one batch-wide ``searchsorted``, and reads connectivity off the
canonical index.  These tests hold all five of its output arrays, dtypes
included, to :func:`oracles.reference_resolve_rows` (pairwise collision
tensors, matmul connectivity on every moving row, argmin + argsort
canonicalization and a scalar dictionary lookup), and pin the two things the
kernel relies on: sorted rows, and a closed index whose misses are checked.
"""
import pytest

np = pytest.importorskip("numpy")  # the table kernel is numpy-optional

from repro.algorithms import create_algorithm
from repro.core import table_kernel
from repro.core.table_kernel import (
    KIND_STEP,
    CanonicalIndex,
    _sort_key,
    resolve_rows_arrays,
    successor_table,
    view_table,
)

from oracles import byte_index_lookup, reference_resolve_rows

SIZES = range(1, 9)


def _algorithm():
    return create_algorithm("shibata-visibility2")


def _assert_identical(got, want):
    assert len(got) == len(want) == len(table_kernel.RESOLVED_FIELDS)
    for field, a, b in zip(table_kernel.RESOLVED_FIELDS, got, want):
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def _code_batches(table, seed):
    """The algorithm's own codes, uniform random codes and sparse random codes."""
    shape = table.move_code.shape
    rng = np.random.default_rng(seed)
    uniform = rng.integers(0, 7, size=shape).astype(np.int8)
    sparse = np.where(rng.random(shape) < 0.15, rng.integers(1, 7, size=shape), 0)
    return {
        "algorithm": np.asarray(table.move_code),
        "uniform": uniform,
        "sparse": sparse.astype(np.int8),
    }


@pytest.mark.parametrize("size", SIZES)
def test_every_row_matches_the_oracle(size):
    table = successor_table(_algorithm(), size)
    vt = table.view
    oracle_lookup = byte_index_lookup(vt.positions)
    for name, codes in _code_batches(table, seed=size).items():
        got = resolve_rows_arrays(vt.positions, codes, vt.gathered, vt.rows_of_canonical)
        want = reference_resolve_rows(vt.positions, codes, vt.gathered, oracle_lookup)
        _assert_identical(got, want)
        if name == "algorithm":
            stored = tuple(getattr(table, f) for f in table_kernel.RESOLVED_FIELDS)
            _assert_identical(got, stored)


@pytest.mark.parametrize("size", (5, 6, 7, 8))
def test_ssync_subset_codes_match_the_oracle(size, monkeypatch):
    """Every activation subset ``_ssync_pass`` resolves, checked call by call."""
    table = successor_table(_algorithm(), size)
    oracle_lookup = byte_index_lookup(table.view.positions)
    real = table_kernel.resolve_rows_arrays
    calls = []

    def checked(pos, move_code, gathered, lookup):
        got = real(pos, move_code, gathered, lookup)
        _assert_identical(got, reference_resolve_rows(pos, move_code, gathered, oracle_lookup))
        calls.append(len(move_code))
        return got

    monkeypatch.setattr(table_kernel, "resolve_rows_arrays", checked)
    rows = np.nonzero(table.mover_count > 0)[0]
    table._ssync_pass(rows)
    assert sum(calls) == int(((1 << table.mover_count[rows].astype(np.int64)) - 1).sum())


def test_empty_and_single_row_batches():
    table = successor_table(_algorithm(), 7)
    vt = table.view
    lookup = byte_index_lookup(vt.positions)
    empty = slice(0, 0)
    _assert_identical(
        resolve_rows_arrays(vt.positions[empty], table.move_code[empty], vt.gathered[empty], lookup),
        reference_resolve_rows(
            vt.positions[empty], table.move_code[empty], vt.gathered[empty], lookup
        ),
    )
    # One row of every kind the table holds, each resolved on its own.
    for kind in np.unique(table.kind).tolist():
        row = int(np.nonzero(table.kind == kind)[0][0])
        one = slice(row, row + 1)
        got = resolve_rows_arrays(vt.positions[one], table.move_code[one], vt.gathered[one], lookup)
        _assert_identical(
            got,
            reference_resolve_rows(vt.positions[one], table.move_code[one], vt.gathered[one], lookup),
        )
        assert int(got[2][0]) == kind


@pytest.mark.parametrize("size", SIZES)
def test_view_table_rows_are_sorted_by_sort_key(size):
    """The kernel's precondition: every canonical row ascends in ``_sort_key``."""
    keys = _sort_key(view_table(size).positions)
    assert (np.diff(keys, axis=1) > 0).all()


def test_a_hidden_connected_successor_raises_instead_of_disconnecting():
    """A lookup that misses a real row must trip the closed-space guard."""
    table = successor_table(_algorithm(), 7)
    vt = table.view
    steps = np.nonzero(table.kind == KIND_STEP)[0]
    hidden = int(table.succ[steps[0]])

    def lookup_hiding_one_row(blocks):
        rows = vt.rows_of_canonical(blocks)
        return np.where(rows == hidden, -1, rows)

    with pytest.raises(RuntimeError, match="missing from the state space"):
        resolve_rows_arrays(vt.positions, table.move_code, vt.gathered, lookup_hiding_one_row)
    # The same lookup is harmless where no row steps onto the hidden one.
    others = steps[table.succ[steps] != hidden]
    kind = resolve_rows_arrays(
        vt.positions[others], table.move_code[others], vt.gathered[others], lookup_hiding_one_row
    )[2]
    assert (kind == KIND_STEP).all()


def test_index_lookup_scans_only_tied_hashes(monkeypatch):
    """Under a hash that collides constantly, the index still answers exactly."""
    vt = view_table(6)
    blocks = np.ascontiguousarray(vt.positions.astype(np.int8).reshape(vt.count, -1))

    def colliding_hash(flat):
        return (flat.astype(np.int64) ** 2).sum(axis=1).astype(np.uint64)

    monkeypatch.setattr(table_kernel, "_canonical_hash", colliding_hash)
    index = CanonicalIndex(blocks)
    rng = np.random.default_rng(6)
    unknown = rng.integers(-6, 7, size=(200, blocks.shape[1])).astype(np.int8)
    queries = np.concatenate((blocks[::-1], unknown))
    oracle = byte_index_lookup(vt.positions)(queries.reshape(len(queries), -1, 2))
    assert np.array_equal(index.lookup(queries), oracle)
