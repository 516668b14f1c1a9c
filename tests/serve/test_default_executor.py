"""serve_default_executor: core-count gated, env-var overridable."""

import pytest

from repro.serve import QuerySpec, Scheduler, ServeConfig
from repro.shard import SERVE_MIN_CORES, serve_default_executor
from repro.shard.executor import EXECUTOR_ENV_VAR


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)


@pytest.mark.parametrize("cores,expected", [
    (1, "serial"),
    (2, "serial"),
    (3, "serial"),
    (4, "process"),
    (8, "process"),
    (64, "process"),
])
def test_core_count_gate(cores, expected):
    assert SERVE_MIN_CORES == 4
    assert serve_default_executor(cpu_count=cores) == expected


def test_env_override_wins(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
    assert serve_default_executor(cpu_count=64) == "serial"
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
    assert serve_default_executor(cpu_count=1) == "process"


@pytest.mark.parametrize("cores", [1, 4, 64])
def test_one_gpu_query_stays_serial(cores):
    assert serve_default_executor(cpu_count=cores, gpus=1) == "serial"
    expected = "process" if cores >= SERVE_MIN_CORES else "serial"
    assert serve_default_executor(cpu_count=cores, gpus=2) == expected


def test_env_override_wins_at_one_gpu(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
    assert serve_default_executor(cpu_count=64, gpus=1) == "process"


def test_one_gpu_query_runs_in_process_by_default(er_graph):
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
    try:
        state = scheduler.submit(QuerySpec(family="kcl", k=3, dataset="G"))
        scheduler.run_until_idle()
        assert state.status == "completed"
        assert state.executor_used == "serial"
        # An in-slot engine keeps no journal on disk.
        assert state.checkpoint_dir is None
    finally:
        scheduler.close()


def test_real_host_resolves_to_known_backend():
    assert serve_default_executor() in ("serial", "process")


def test_scheduler_resolution_order(er_graph, monkeypatch):
    """spec.executor > ServeConfig.executor > serve_default_executor."""
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
    try:
        # Env default: serial.
        defaulted = scheduler.submit(QuerySpec(family="kcl", k=3,
                                               dataset="G", gpus=2))
        # The per-query spec overrides the environment.
        pinned = scheduler.submit(QuerySpec(family="kcl", k=3, dataset="G",
                                            gpus=2, executor="process"))
        scheduler.run_until_idle()
        assert defaulted.status == pinned.status == "completed"
        assert defaulted.executor_used == "serial"
        assert pinned.executor_used == "process"
        assert defaulted.result["cliques"] == pinned.result["cliques"]
    finally:
        scheduler.close()


def test_config_executor_beats_env(er_graph, monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
    scheduler = Scheduler(ServeConfig(slots=1, executor="serial"),
                          graphs={"G": er_graph})
    try:
        state = scheduler.submit(QuerySpec(family="kcl", k=3, dataset="G",
                                           gpus=2))
        scheduler.run_until_idle()
        assert state.status == "completed"
        assert state.executor_used == "serial"
    finally:
        scheduler.close()
