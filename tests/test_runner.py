"""Tests for the unified batch runner, sweeps and the cached algorithm wrapper."""
import pytest

from repro.algorithms import CachedAlgorithm, create_algorithm
from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.algorithm import StayAlgorithm
from repro.core.configuration import hexagon, line
from repro.core.runner import (
    ExecutionBatch,
    execute_configuration,
    iter_result_chunks,
    run_many,
    run_sweep,
)
from repro.core.scheduler import (
    FullySynchronousScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    scheduler_from_spec,
)
from repro.core.trace import Outcome
from repro.core.view import view_of
from repro.enumeration.polyhex import enumerate_connected_configurations


# ------------------------------------------------------------- run_many core

def test_run_many_collects_in_order():
    configs = enumerate_connected_configurations(4)
    batch = run_many(configs, algorithm=ShibataGatheringAlgorithm(), max_rounds=200)
    assert batch.total == len(configs) == 44
    assert batch.algorithm_name == "shibata-visibility2"
    assert [r.initial_nodes for r in batch.results] == [
        tuple((c.q, c.r) for c in cfg.sorted_nodes()) for cfg in configs
    ]
    assert batch.elapsed_seconds > 0
    assert batch.throughput() > 0


def test_run_many_accepts_node_tuples_and_algorithm_name():
    nodes = tuple((i, 0) for i in range(7))
    batch = run_many([nodes], algorithm_name="stay", max_rounds=10)
    assert batch.total == 1
    assert batch.results[0].outcome is Outcome.DEADLOCK


def test_run_many_requires_exactly_one_algorithm_argument():
    with pytest.raises(ValueError):
        run_many([hexagon()])
    with pytest.raises(ValueError):
        run_many([hexagon()], algorithm=StayAlgorithm(), algorithm_name="stay")


def test_run_many_progress_serial_is_per_configuration():
    configs = enumerate_connected_configurations(3)
    seen = []
    run_many(
        configs,
        algorithm=StayAlgorithm(),
        progress=lambda done, total: seen.append((done, total)),
    )
    assert seen == [(i + 1, 11) for i in range(11)]


def test_iter_result_chunks_streams_in_chunks():
    configs = enumerate_connected_configurations(3)
    chunks = list(
        iter_result_chunks(configs, algorithm=StayAlgorithm(), chunk_size=4)
    )
    assert [len(c) for c in chunks] == [4, 4, 3]
    assert sum(len(c) for c in chunks) == 11


def test_iter_result_chunks_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        list(iter_result_chunks([hexagon()], algorithm=StayAlgorithm(), chunk_size=0))


def test_run_many_with_scheduler_spec():
    batch = run_many(
        [line(7)],
        algorithm=ShibataGatheringAlgorithm(),
        scheduler="round-robin:2",
        max_rounds=400,
    )
    assert batch.scheduler_name == "round-robin:2"
    assert batch.total == 1


@pytest.mark.slow
def test_run_many_parallel_matches_serial():
    configs = enumerate_connected_configurations(5)
    serial = run_many(configs, algorithm_name="shibata-visibility2", max_rounds=300)
    parallel = run_many(
        configs,
        algorithm_name="shibata-visibility2",
        max_rounds=300,
        workers=2,
        chunk_size=50,
    )
    assert parallel.results == serial.results
    assert parallel.workers == 2


def test_parallel_requires_algorithm_name():
    with pytest.raises(ValueError):
        list(
            iter_result_chunks(
                [hexagon()], algorithm=StayAlgorithm(), workers=2
            )
        )


def test_unknown_kernel_rejected_for_an_empty_batch():
    with pytest.raises(ValueError, match="unknown kernel"):
        run_many([], algorithm=StayAlgorithm(), kernel="warp")


def test_unknown_kernel_rejected_before_any_pool_exists(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started for an unknown kernel")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    with pytest.raises(ValueError, match="unknown kernel"):
        run_many([hexagon()], algorithm_name="stay", workers=2, kernel="reference")


def test_parallel_rejects_scheduler_instances():
    with pytest.raises(ValueError):
        list(
            iter_result_chunks(
                [hexagon()],
                algorithm_name="stay",
                scheduler=RoundRobinScheduler(),
                workers=2,
            )
        )


# ------------------------------------------------------------ table batches

def test_fsync_table_batch_with_workers_starts_no_pool(monkeypatch):
    import multiprocessing

    pytest.importorskip("numpy")
    configs = enumerate_connected_configurations(6)
    serial = run_many(configs, algorithm_name="shibata-visibility2", max_rounds=300,
                      kernel="table")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started for an FSYNC table batch")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    parallel = run_many(configs, algorithm_name="shibata-visibility2", max_rounds=300,
                        kernel="table", workers=2)
    assert parallel.results == serial.results


@pytest.mark.parametrize("scheduler", [None, "round-robin:2"])
def test_table_batches_keep_the_parallel_argument_checks(scheduler):
    with pytest.raises(ValueError, match="algorithm_name"):
        run_many([hexagon()], algorithm=ShibataGatheringAlgorithm(), scheduler=scheduler,
                 workers=2, kernel="table")
    instance = scheduler_from_spec(scheduler)
    with pytest.raises(ValueError, match="spec string"):
        run_many([hexagon()], algorithm_name="shibata-visibility2", scheduler=instance,
                 workers=2, kernel="table")


def test_table_sweep_builds_its_table_once(monkeypatch):
    from repro import obs
    from repro.core import runner

    pytest.importorskip("numpy")
    monkeypatch.delitem(runner._WORKER_ALGORITHMS, "shibata-visibility2", raising=False)
    obs.export_delta()
    cells = run_sweep(["shibata-visibility2"], max_rounds_grid=[100, 200, 300], size=6,
                      kernel="table")
    assert len(cells) == 3
    assert obs.export_delta()["counters"]["table.succ_builds"] == 1


def test_serial_scheduled_table_batch_past_n7_runs_on_the_table():
    from repro import obs
    from repro.core.table_kernel import clear_table_caches

    pytest.importorskip("numpy")
    configs = enumerate_connected_configurations(8)[::128]
    algorithm = ShibataGatheringAlgorithm()
    obs.export_delta()
    table = run_many(configs, algorithm=algorithm, scheduler="round-robin:2",
                     max_rounds=200, kernel="table")
    assert obs.export_delta()["counters"]["table.succ_builds"] == 1
    assert 8 in algorithm._successor_tables
    packed = run_many(configs, algorithm=ShibataGatheringAlgorithm(),
                      scheduler="round-robin:2", max_rounds=200)
    for table_result, packed_result in zip(table.results, packed.results):
        assert table_result == packed_result
    assert table.total == packed.total == len(configs)
    clear_table_caches(algorithm)


def test_execution_batch_aggregates():
    batch = ExecutionBatch(algorithm_name="x")
    assert batch.total == 0
    assert batch.success_rate == 0.0
    assert batch.outcome_counts() == {}
    assert batch.throughput() == 0.0


def test_execute_configuration_matches_verify_configuration():
    from repro.analysis.verification import verify_configuration

    result = execute_configuration(hexagon(), StayAlgorithm())
    assert result == verify_configuration(hexagon(), StayAlgorithm())
    assert result.succeeded and result.rounds == 0


# ------------------------------------------------------------------- sweeps

def test_run_sweep_grid_shape_and_contents():
    cells = run_sweep(
        ["shibata-visibility2", "stay"],
        scheduler_specs=["fsync"],
        max_rounds_grid=[200, 400],
        size=4,
    )
    assert len(cells) == 4  # 2 algorithms x 1 scheduler x 2 budgets
    by_key = {(c.algorithm_name, c.max_rounds): c for c in cells}
    assert by_key[("shibata-visibility2", 200)].total == 44
    # The paper's algorithm dominates the stay control on every budget.
    for budget in (200, 400):
        assert (
            by_key[("shibata-visibility2", budget)].gathered
            > by_key[("stay", budget)].gathered
        )
    summary = cells[0].summary()
    assert summary["configurations"] == 44
    assert set(summary["outcomes"]) <= {o.value for o in Outcome}


def test_run_sweep_explicit_configurations_and_progress():
    seen = []
    cells = run_sweep(
        ["stay"],
        scheduler_specs=["fsync", "round-robin:1"],
        max_rounds_grid=[50],
        configurations=[hexagon(), line(4)],
        progress=lambda done, total: seen.append((done, total)),
    )
    assert len(cells) == 2
    assert seen == [(1, 2), (2, 2)]
    assert all(cell.total == 2 for cell in cells)


# -------------------------------------------------------- scheduler specs

def test_scheduler_from_spec_parsing():
    assert isinstance(scheduler_from_spec(None), FullySynchronousScheduler)
    assert isinstance(scheduler_from_spec("fsync"), FullySynchronousScheduler)
    rr = scheduler_from_spec("round-robin:3")
    assert isinstance(rr, RoundRobinScheduler) and rr.robots_per_round == 3
    rs = scheduler_from_spec("random-subset:0.25:7")
    assert isinstance(rs, RandomSubsetScheduler)
    assert rs.probability == 0.25 and rs.seed == 7
    passthrough = RoundRobinScheduler(2)
    assert scheduler_from_spec(passthrough) is passthrough


@pytest.mark.parametrize(
    "bad", ["nope", "fsync:1", "round-robin:x", "random-subset:2junk"]
)
def test_scheduler_from_spec_rejects_garbage(bad):
    with pytest.raises(ValueError):
        scheduler_from_spec(bad)


# -------------------------------------------------------- cached algorithms

def test_cached_algorithm_is_transparent():
    inner = ShibataGatheringAlgorithm()
    cached = CachedAlgorithm(inner)
    assert cached.name == inner.name
    assert cached.visibility_range == inner.visibility_range
    config = line(7)
    for position in config.sorted_nodes():
        view = view_of(config, position, 2)
        assert cached.compute(view) == inner.compute(view)
    info = cached.cache_info()
    assert info.misses > 0 and info.size == info.misses
    # Second pass: all hits.
    for position in config.sorted_nodes():
        cached.compute(view_of(config, position, 2))
    assert cached.cache_info().hits >= info.misses
    assert 0.0 < cached.cache_info().hit_rate < 1.0
    cached.clear_cache()
    assert cached.cache_info() == (0, 0, 0)


def test_cached_algorithm_shares_cache_with_inner_instance():
    inner = ShibataGatheringAlgorithm()
    cached = CachedAlgorithm(inner)
    assert cached._decision_cache is inner._decision_cache
    rewrapped = CachedAlgorithm(cached)
    assert rewrapped.inner is inner


def test_registry_cached_flag():
    algorithm = create_algorithm("shibata-visibility2", cached=True)
    assert isinstance(algorithm, CachedAlgorithm)
    assert algorithm.name == "shibata-visibility2"
    plain = create_algorithm("shibata-visibility2")
    assert not isinstance(plain, CachedAlgorithm)


# ------------------------------------------------------------------ CLI glue

def test_cli_sweep_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "sweep",
            "--algorithms",
            "shibata-visibility2,stay",
            "--size",
            "4",
            "--max-rounds-grid",
            "200",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "shibata-visibility2 | fsync" in out
    assert "stay | fsync" in out


def test_cli_sweep_json(capsys):
    import json

    from repro.cli import main

    code = main(
        ["sweep", "--algorithms", "stay", "--size", "3", "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    cells = json.loads(out)
    assert cells[0]["algorithm"] == "stay"
    assert cells[0]["configurations"] == 11


def test_cli_sweep_rejects_unknown_algorithm():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["sweep", "--algorithms", "not-a-thing", "--size", "3"])
