import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def ray_execs(monkeypatch):
    """Callable returning how many Ray Data executions
    (`StreamingExecutor.execute` calls) this process started since the
    fixture was set up. The wrap is undone on teardown."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    original = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return lambda: len(calls)


@pytest.fixture
def from_arrow_calls(monkeypatch):
    """Callable returning how many `ray.data.read_api.from_arrow_refs`
    Datasets (each with one remote metadata task per block; every
    `ray.data.from_arrow` builds one) this process built since the fixture
    was set up. The wrap is undone on teardown."""
    import ray.data.read_api

    calls = []
    original = ray.data.read_api.from_arrow_refs

    def from_arrow_refs(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ray.data.read_api, "from_arrow_refs", from_arrow_refs)
    return lambda: len(calls)
