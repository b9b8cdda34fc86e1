"""Toy-scale tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import FUNCTION_SITES, NAME, Tracer, self_times, summarize  # noqa: E402

from bold2img import cli, trainer  # noqa: E402
from bold2img.substrate import OptimizerState, ParamStore, Tensor, ops, read_tensor, write_tensor  # noqa: E402
from bold2img.synthcortex import load_manifest  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, -1, 0]


# ---------------------------------------------------------------------------
# span arithmetic and order statistics


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        span("a.child", 2.0, 3.0, 1),
        span("c", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_summary_sums_self_time_per_name():
    spans = [span("trainer.step", 0.0, 4.0), span("x", 1.0, 2.0, 0), span("trainer.step", 5.0, 6.0)]
    out = summarize(spans, {"c": 2.0}, workers=2)
    assert out["self_s"] == pytest.approx({"trainer.step": 4.0, "x": 1.0})
    assert out["step_s"] == pytest.approx([4.0, 1.0])
    assert out["counters"] == {"c": 2.0}


@pytest.mark.parametrize("n", [11, 20, 37, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    pct, value, count = stats.tail(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_values():
    values = [float(v) for v in range(1, 101)]
    assert stats.tail(values) == (90.0, 90.0, 100)
    assert stats.tail(values[:20]) == (50.0, 10.0, 20)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_absent_with_ten_samples_or_fewer(n):
    assert stats.tail([1.0] * n) == (0.0, 0.0, n)


# ---------------------------------------------------------------------------
# tracer


def _patched_targets():
    import bold2img.prep as prep
    from bold2img.substrate import params, tensor

    targets = [(ops, name) for name, fn in vars(ops).items() if callable(fn) and not name.startswith("_")]
    targets += [(tensor.Tensor, "backward"), (params.ParamStore, "zero_grads"), (prep.PreprocCache, "build")]
    targets += [(importlib.import_module(m), a) for m, a, _ in FUNCTION_SITES]
    return targets


def test_wrappers_are_restored():
    targets = _patched_targets()
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = Tracer()
    tracer.install()
    try:
        assert ops.__dict__["conv2d"] is not before[[a for _, a in targets].index("conv2d")]
        assert trainer.__dict__["adamw_step"].__wrapped__ is not None
    finally:
        tracer.uninstall()
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))


def test_conv_spans_and_computed_counts():
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((2, 8, 8, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(g.standard_normal((3, 3, 3, 4)).astype(np.float32), requires_grad=True)
    tracer = Tracer()
    tracer.install()
    try:
        y = ops.conv2d(x, w, None, stride=2)
        loss = ops.mean(ops.attention(ops.reshape(y, (2, 16, 4)), ops.reshape(y, (2, 16, 4)), ops.reshape(y, (2, 16, 4))))
        loss.backward()
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    assert "substrate.conv2d_s2.fwd" in names and "substrate.conv2d_s2.bwd" in names
    assert "substrate.attention.bwd" in names
    # the matmuls and softmax inside attention are folded into it
    assert names.count("substrate.attention.fwd") == 1 and "substrate.other.fwd" in names
    assert not any(n.startswith("substrate.linear") for n in names)
    flop = 2.0 * 2 * 4 * 4 * 9 * 3 * 4
    assert tracer.counters["substrate.conv2d.wgrad_flop"] == flop
    assert tracer.counters["substrate.conv2d.flop"] == 3 * flop  # forward, weight and input gradients
    assert tracer.counters["substrate.conv2d.bytes"] == 3 * 4 * (2 * 8 * 8 * 3 + 3 * 3 * 3 * 4 + 2 * 4 * 4 * 4)
    bwd = [s for s in tracer.spans if s[NAME] == "substrate.conv2d_s2.bwd"][0]
    assert tracer.spans[bwd[3]][NAME] == "substrate.backward"


def test_no_graph_under_no_grad():
    from bold2img.substrate import no_grad

    g = np.random.default_rng(1)
    w = Tensor(g.standard_normal((3, 3, 3, 4)).astype(np.float32), requires_grad=True)
    tracer = Tracer()
    tracer.install()
    try:
        with no_grad():
            ops.conv2d(g.standard_normal((1, 4, 4, 3)).astype(np.float32), w)
    finally:
        tracer.uninstall()
    assert tracer.counters["substrate.graph_nodes"] == 0
    assert tracer.counters["substrate.conv2d.wgrad_flop"] == 0


# ---------------------------------------------------------------------------
# the benchmark's configuration is accepted whole by the program


def test_every_knob_is_set_and_accepted(tmp_path):
    wl = run.WORKLOADS["joint"]
    argv = run.cli_args(wl.base(tmp_path, 7), "gen-data")
    args = cli.build_parser().parse_args(argv)
    config = cli.resolve_config(args.config, args.set)
    assert config["seed"] == 7
    assert config["dataset"]["n_train_unique"] == 500
    assert config["train"]["unet"]["channels"] == [32, 64, 128]
    assert len(args.set) == len(wl.base(tmp_path, 7))


# ---------------------------------------------------------------------------
# output checks fail on corrupted outputs


def _training_output(out: Path, steps: int, losses=None):
    store = ParamStore()
    store.add("unet/w", np.ones((2, 2), dtype=np.float32))
    tc = trainer.TrainConfig(steps=steps + 1, warmup_steps=1)
    trainer.save_train_state(out, store, OptimizerState(step=steps), tc, {"phase": "pretrain"})
    losses = losses if losses is not None else [0.5] * steps
    rows = "".join(f"{i},{v:.6f},0.00100000,0\n" for i, v in enumerate(losses))
    (out / "loss.csv").write_text("step,loss,lr,cond_dropped\n" + rows)


def test_training_check_passes_and_reports_rows(tmp_path):
    _training_output(tmp_path, 3, [0.5, 0.4, 0.3])
    rows = checks.check_training(tmp_path, 3, trainer.load_train_state)
    assert checks.loss_final(rows, 2) == pytest.approx(0.35)


@pytest.mark.parametrize(
    "corrupt",
    ["nan_row", "missing_row", "wrong_step", "truncated_blob"],
)
def test_training_check_fails_on_corruption(tmp_path, corrupt):
    _training_output(tmp_path, 3)
    if corrupt == "nan_row":
        _training_output(tmp_path, 3, [0.5, math.nan, 0.3])
    elif corrupt == "missing_row":
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        (tmp_path / "loss.csv").write_text("\n".join(lines[:-1]) + "\n")
    elif corrupt == "wrong_step":
        _training_output(tmp_path, 2)
        (tmp_path / "loss.csv").write_text("step,loss,lr,cond_dropped\n0,0.5,0,0\n1,0.5,0,0\n2,0.5,0,0\n")
    else:
        blob = tmp_path / "unet__w.bin"
        blob.write_bytes(blob.read_bytes()[:-3])
    with pytest.raises(checks.CheckFailed):
        checks.check_training(tmp_path, 3, trainer.load_train_state)


def _report(path: Path, n_trials=4, value=0.5):
    row = {m: value for m in checks.REPORT_METRICS} | {"n_trials": n_trials}
    doc = {"per_subject": {"sub01": row, "sub02": dict(row)}, "mean": {m: 0.5 for m in checks.REPORT_METRICS}}
    path.mkdir(parents=True, exist_ok=True)
    (path / "report.json").write_text(json.dumps(doc))


def test_report_check(tmp_path):
    _report(tmp_path)
    checks.check_report(tmp_path, ["sub01", "sub02"], 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(tmp_path, ["sub01", "sub02", "sub03"], 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(tmp_path, ["sub01", "sub02"], 5)
    (tmp_path / "report.json").write_text((tmp_path / "report.json").read_text().replace("0.5", "NaN", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(tmp_path, ["sub01", "sub02"], 4)


TOY_DATA = {
    "dataset.n_subjects": 2,
    "dataset.n_train_unique": 10,
    "dataset.n_test_unique": 5,
    "dataset.trials_per_run": 15,
    "dataset.voxel_lo": 30,
    "dataset.voxel_hi": 50,
}


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    cfg = {**run.WORKLOADS["datagen"].base(root, 3), **TOY_DATA}
    for command in ("gen-data", "preprocess"):
        assert cli.dispatch(run.cli_args(cfg, command)) == 0
    return root / "dataset", run.dataset_plan(cfg)


def test_dataset_check_passes(toy_dataset):
    root, plan = toy_dataset
    checks.check_dataset(root, plan, load_manifest, read_tensor)


@pytest.mark.parametrize("corrupt", ["truncated_run", "nan_preprocessed", "missing_run", "wrong_plan"])
def test_dataset_check_fails_on_corruption(toy_dataset, tmp_path, corrupt):
    src, plan = toy_dataset
    root = Path(shutil.copytree(src, tmp_path / "dataset"))
    run_file = sorted((root / "runs").glob("*.bin"))[0]
    if corrupt == "truncated_run":
        run_file.write_bytes(run_file.read_bytes()[:-40])
    elif corrupt == "nan_preprocessed":
        pre = sorted(root.glob("preproc_c*/*.bin"))[0]
        arr = read_tensor(pre)
        arr[0, 0] = np.nan
        write_tensor(pre, arr)
    elif corrupt == "missing_run":
        run_file.unlink()
    else:
        plan = {**plan, "runs_per_subject": plan["runs_per_subject"] + 1}
    with pytest.raises(checks.CheckFailed):
        checks.check_dataset(root, plan, load_manifest, read_tensor)


# ---------------------------------------------------------------------------
# the reported metrics are the ones BENCHMARK.json declares


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = [run.Call(traced=False, ops=8, wall_s=4.0, startup_s=0.5, peak_rss_mb=600.0, ok=True, loss_rows="0,0.5,0,0")]
    result, _ = run.summarize_run(run.WORKLOADS["pretrain"], False, calls, [3.0], {}, {})
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = run.per_layer(calls, {"cores": 2, "blas_threads": 2})
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == run.WHY[w["name"]] for w in spec["workloads"])


def test_child_peak_memory_excludes_the_parent(tmp_path):
    held = np.ones(250_000_000 // 8)  # the parent's peak must not leak into the child's
    job = run.run_child(tmp_path / "call", [], False, ROOT / "src", None, timeout=60)
    assert held.sum() > 0
    assert job["codes"] == [] and job["peak_rss_mb"] < 200


def test_a_failed_call_fails_the_run():
    ok = run.Call(traced=False, ops=8, wall_s=4.0, startup_s=0.5, peak_rss_mb=600.0, ok=True, loss_rows="0,0.5,0,0")
    bad = run.Call(traced=False, ops=8, wall_s=4.0, startup_s=0.5, peak_rss_mb=600.0, error="non-finite loss")
    result, info = run.summarize_run(run.WORKLOADS["joint"], False, [ok, bad], [3.0], {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 16, 8)
    assert info["named"]["failed_frac"] == (0.5, "ratio")
