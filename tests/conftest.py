import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def fresh_worker_cache(monkeypatch):
    """Run a test against an empty driver-side worker cache, then
    restore the driver's cache and GC thresholds."""
    import gc

    from stanford_relation_extractor_ray import runtime
    monkeypatch.setattr(runtime, "_WORKER_CACHE", {})
    thresholds = gc.get_threshold()
    yield runtime._WORKER_CACHE
    gc.set_threshold(*thresholds)
