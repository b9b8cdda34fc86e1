"""`gen-data` and `preprocess` on forked lanes: a failed item is named and
leaves no manifest or index behind, every lane is reaped, and a current
preprocessing cache forks nothing."""

import contextlib
import os

import pytest

from bold2img import prep
from bold2img.cli import EXIT_FAIL, dispatch
from bold2img.lanes import LaneError, blas_threads
from bold2img.prep import PreprocCache
from bold2img.substrate import RngKey
from bold2img.synthcortex import DatasetConfig, build_dataset, load_manifest
from bold2img.synthcortex import dataset as dataset_mod

needs_blas_threads = pytest.mark.skipif(not blas_threads(), reason="numpy's BLAS thread count cannot be set")

# 2 subjects of 2 runs: at workers 2, sub01/run001 and sub02/run001 fall on
# lane 1, sub01/run000 and sub02/run000 on the caller's lane 0
CFG = DatasetConfig(n_subjects=2, n_train_unique=8, n_test_unique=2, trials_per_run=15)
FAILING = [("sub01/run001", 1), ("sub02/run000", 0)]


def _no_lane_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_simulating(monkeypatch, run: str):
    """Make `build_dataset`'s synthesis of `run` raise ValueError('boom')."""
    simulate = dataset_mod.simulate_run

    def flaky(subject, *args, **kwargs):  # the run id is the last positional argument
        if f"{subject.subject_id}/{args[-1]}" == run:
            raise ValueError("boom")
        return simulate(subject, *args, **kwargs)

    monkeypatch.setattr(dataset_mod, "simulate_run", flaky)


@contextlib.contextmanager
def _fails_naming(run: str, lane: int):
    """The block raises the 'boom' of `run` on `lane`, named: by a forked
    lane's LaneError, or by a note on the caller's own error. Afterwards no
    lane is left and the BLAS thread count is restored."""
    threads = blas_threads()
    if lane:
        with pytest.raises(LaneError, match=f"^lane {lane} failed at {run}: ValueError: boom$"):
            yield
    else:
        with pytest.raises(ValueError, match="boom") as err:
            yield
        assert err.value.__notes__ == [f"lane 0 failed at {run}"]
    _no_lane_left()
    assert blas_threads() == threads


@needs_blas_threads
@pytest.mark.parametrize("run, lane", FAILING)
def test_a_failed_run_is_named_and_leaves_no_manifest(tmp_path, monkeypatch, run, lane):
    root = tmp_path / "ds"
    build_dataset(CFG, RngKey(0), root)
    _fail_simulating(monkeypatch, run)
    with _fails_naming(run, lane):
        build_dataset(CFG, RngKey(1), root, workers=2)
    with pytest.raises(FileNotFoundError):
        load_manifest(root)


@needs_blas_threads
def test_gen_data_prints_the_item_its_own_lane_failed_at(tmp_path, monkeypatch, capsys):
    _fail_simulating(monkeypatch, "sub02/run000")
    sizes = {"n_subjects": CFG.n_subjects, "n_train_unique": CFG.n_train_unique,
             "n_test_unique": CFG.n_test_unique, "trials_per_run": CFG.trials_per_run}
    overrides = [arg for k, v in sizes.items() for arg in ("--set", f"dataset.{k}={v}")]
    paths = ["--set", f"paths.out_root={tmp_path}", "--set", f"paths.data={tmp_path / 'ds'}"]
    assert dispatch(["--workers", "2", *paths, *overrides, "gen-data"]) == EXIT_FAIL
    assert "error: boom\nlane 0 failed at sub02/run000\n" in capsys.readouterr().err
    _no_lane_left()


@needs_blas_threads
@pytest.mark.parametrize("run, lane", FAILING)
def test_a_failed_cache_rebuild_is_named_and_leaves_the_cache_refused(tmp_path, monkeypatch, run, lane):
    root = tmp_path / "ds"
    PreprocCache(build_dataset(CFG, RngKey(0), root)).build()
    m = build_dataset(CFG, RngKey(1), root)  # the cache on disk is now stale
    preprocess = prep.preprocess_run

    def flaky(raw, cutoff_s):
        if f"{raw.subject_id}/{raw.run_id}" == run:
            raise ValueError("boom")
        return preprocess(raw, cutoff_s)

    monkeypatch.setattr(prep, "preprocess_run", flaky)
    with _fails_naming(run, lane):
        PreprocCache(m, workers=2).build()
    with pytest.raises(ValueError, match="stale preprocessing cache"):
        PreprocCache(m).get("sub01", 0)


@needs_blas_threads
def test_a_current_cache_forks_nothing(tmp_path, monkeypatch):
    m = build_dataset(CFG, RngKey(0), tmp_path / "ds")
    index = PreprocCache(m, workers=2).build().dir / "index.json"
    written = index.stat().st_mtime_ns

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    PreprocCache(m, workers=2).build().get("sub01", 0)
    assert index.stat().st_mtime_ns == written
    index.unlink()  # stale: every run is rewritten, on two lanes
    with pytest.raises(AssertionError, match="forked"):
        PreprocCache(m, workers=2).build()
