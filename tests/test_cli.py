import argparse
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import bold2img
from bold2img import cli
from bold2img.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    dataset_config,
    dispatch,
    eval_config,
    resolve_config,
    train_config,
)
from bold2img.diffgen import UNetConfig
from bold2img.evalkit import EvalConfig, evaluate_split
from bold2img.lanes import blas_threads
from bold2img.prep import DEFAULT_TEST_RUN_FRACTION, PreprocCache, build_split_standard, extract_epochs
from bold2img.substrate import RngKey
from bold2img.synthcortex import DatasetConfig, load_manifest
from bold2img.trainer import TrainConfig, load_train_state

TINY_OVERRIDES = [
    "--set", "dataset.n_subjects=2",
    "--set", "dataset.n_train_unique=10",
    "--set", "dataset.n_test_unique=5",
    "--set", "dataset.trials_per_run=15",
    "--set", "dataset.voxel_lo=25",
    "--set", "dataset.voxel_hi=40",
    "--set", "train.steps=3",
    "--set", "train.pretrain_steps=2",
    "--set", "train.batch_size=4",
    "--set", "train.warmup_steps=1",
    "--set", "train.brain.hidden=16",
    "--set", "train.brain.tokens=4",
    "--set", "train.brain.token_dim=8",
    "--set", "train.unet.channels=[8,8,16]",
    "--set", "eval.steps=3",
]


ROOT = Path(__file__).resolve().parents[1]
# `train` flags that copy a `train.*` key, kept for a caller outside src/ with
# the file that passes them: the benchmark runs `train --regime lora`
TRAIN_FLAGS_CALLED_OUTSIDE_SRC = {"regime": ROOT / "perfbench" / "run.py"}


def _run(out_root, *argv):
    return dispatch(["--set", f"paths.out_root={out_root}", *TINY_OVERRIDES, *argv])


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert _run(root, "gen-data") == EXIT_OK
    assert _run(root, "preprocess") == EXIT_OK
    assert _run(root, "pretrain-gen") == EXIT_OK
    return root


def test_resolve_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"stepz": 5}}))
    code = dispatch(["--config", str(bad), "gen-data"])
    assert code == EXIT_CONFIG


def test_resolve_config_rejects_unknown_override():
    code = dispatch(["--set", "train.nope=3", "gen-data"])
    assert code == EXIT_CONFIG


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("BOLD2IMG_OUT", str(tmp_path / "envroot"))
    config = resolve_config(None, [])
    assert config["paths"]["out_root"] == str(tmp_path / "envroot")


def test_gen_data_writes_resolved_config(cli_world):
    root = Path(cli_world)
    doc = json.loads((root / "dataset" / "resolved_config.json").read_text())
    assert doc["run"]["command"] == "gen-data"
    assert doc["dataset"]["n_train_unique"] == 10
    reloaded = resolve_config(str(root / "dataset" / "resolved_config.json"), [])
    assert reloaded == {k: v for k, v in doc.items() if k != "run"}
    assert (root / "dataset" / "manifest.json").exists()


def test_train_regime_none_leaves_generator_untouched(cli_world, tmp_path):
    root = Path(cli_world)
    out = tmp_path / "train_none"
    assert _run(root, "train", "--regime", "none", "--out", str(out)) == EXIT_OK
    pre, _, _, _ = load_train_state(root / "pretrain")
    post, _, _, _ = load_train_state(out)
    unet_names = [n for n in pre.names() if n.startswith("unet/")]
    assert post.hash_of(unet_names) == pre.hash_of(unet_names)
    doc = json.loads((out / "resolved_config.json").read_text())
    assert doc["train"]["regime"] == "none"


@pytest.mark.parametrize("regime", ["all", "linear", "cross_attn"])
def test_adapt_rejects_regime_it_cannot_honour(cli_world, tmp_path, capsys, regime):
    root = Path(cli_world)
    base = tmp_path / "base"
    assert _run(root, "train", "--subjects", "sub01", "--out", str(base)) == EXIT_OK
    out = tmp_path / "adapted"
    code = _run(root, "train", "--adapt-subject", "sub02", "--sessions-used", "1", "--from-ckpt", str(base),
                "--regime", regime, "--out", str(out))
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert f"regime {regime!r}" in err and "'none' and 'lora'" in err
    assert not out.exists()


def test_eval_and_infer_commands(cli_world, tmp_path):
    root = Path(cli_world)
    train_out = tmp_path / "train"
    assert _run(root, "train", "--out", str(train_out)) == EXIT_OK
    eval_out = tmp_path / "eval"
    assert _run(root, "eval", "--ckpt", str(train_out), "--out", str(eval_out)) == EXIT_OK
    report = json.loads((eval_out / "report.json").read_text())
    assert "two_way_low" in report["mean"]
    infer_out = tmp_path / "infer"
    assert _run(root, "infer", "--ckpt", str(train_out), "--limit", "2", "--out", str(infer_out)) == EXIT_OK
    recs = json.loads((infer_out / "records.json").read_text())
    assert len(recs) == 4  # 2 per subject
    manifest = load_manifest(root / "dataset")
    split = build_split_standard(manifest)
    refs = {s: split.test_refs[s][:2] for s in split.test_refs}
    epochs, _ = extract_epochs(PreprocCache(manifest).build(), refs)
    assert [r["stimulus_id"] for r in recs] == [e.stimulus_id for e in epochs]
    keys = {"subject", "stimulus_id", "run_id", "event_index", "delta", "repetition", "steps", "guidance"}
    assert all(set(r) == keys for r in recs)
    assert recs[0]["steps"] == 3 and recs[0]["guidance"] == 3.0


def test_eval_and_infer_decode_the_subjects_the_checkpoint_holds(cli_world, tmp_path):
    root = Path(cli_world)
    ckpt = tmp_path / "sub01"
    assert _run(root, "train", "--subjects", "sub01", "--out", str(ckpt)) == EXIT_OK
    eval_out = tmp_path / "eval"
    assert _run(root, "eval", "--ckpt", str(ckpt), "--out", str(eval_out)) == EXIT_OK
    report = json.loads((eval_out / "report.json").read_text())
    assert sorted(report["per_subject"]) == report["protocol"]["subjects"] == ["sub01"]
    infer_out = tmp_path / "infer"
    assert _run(root, "infer", "--ckpt", str(ckpt), "--limit", "2", "--out", str(infer_out)) == EXIT_OK
    assert [r["subject"] for r in json.loads((infer_out / "records.json").read_text())] == ["sub01"] * 2
    tr_ckpt, sweep_out = tmp_path / "sub01_tr", tmp_path / "sweep"
    time_split = ["--set", "eval.test_run_fraction=0.34"]
    assert _run(root, *time_split, "train", "--subjects", "sub01", "--split", "time-resolved",
                "--out", str(tr_ckpt)) == EXIT_OK
    assert _run(root, *time_split, "--set", "eval.deltas_tr=[0]", "--set", "eval.max_trials_per_subject=2",
                "sweep-time", "--general", str(tr_ckpt), "--out", str(sweep_out)) == EXIT_OK
    sweep = json.loads((sweep_out / "sweep_time.json").read_text())
    assert sweep["protocol"]["subjects"] == sorted(sweep["points"][0]["general"]["per_subject"]) == ["sub01"]
    # a split none of whose subjects the checkpoint holds
    manifest = load_manifest(root / "dataset")
    split = build_split_standard(manifest)
    other = replace(split, test_refs={"sub02": split.test_refs["sub02"]})
    with pytest.raises(ValueError) as err:
        evaluate_split(ckpt, manifest, other, RngKey(0), EvalConfig())
    assert str(err.value) == f"checkpoint {ckpt} holds subjects ['sub01'], none of the split's test subjects ['sub02']"


def _outputs(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "resolved_config.json"  # it records --out
    }


def test_train_bits_do_not_depend_on_blas_threads(cli_world, tmp_path):
    # what decode and training lanes, and training processes run side by side
    # on one thread each, rely on: the thread count changes no output byte.
    # At batch 32 both shards of each step run in the one process.
    src = str(Path(bold2img.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "BOLD2IMG_OUT"}
    for batch, workers in ((4, []), (32, ["--workers", "1"])):
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"b{batch}-threads{threads}"
            argv = ["--set", f"paths.out_root={cli_world}", *TINY_OVERRIDES, "--set", f"train.batch_size={batch}",
                    *workers, "train", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "bold2img.cli", *argv], capture_output=True, text=True,
                                  env=dict(env, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads), timeout=300)
            assert done.returncode == 0, done.stderr
            outputs[threads] = _outputs(out)
        assert "loss.csv" in outputs["1"] and sum(name.endswith(".bin") for name in outputs["1"]) > 10
        assert sorted(outputs["1"]) == sorted(outputs["2"])
        assert [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]] == []


def test_training_bits_do_not_depend_on_workers(cli_world, tmp_path):
    # batch 32 is two shards: one lane computes both, or two lanes one each
    threads = blas_threads()
    outputs = {}
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        for argv in (["--set", f"paths.pretrain={out / 'pretrain'}", "pretrain-gen"],
                     ["train", "--out", str(out / "train")]):
            assert _run(cli_world, "--set", "train.batch_size=32", "--workers", str(workers), *argv) == EXIT_OK
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no lane outlives its command
        assert blas_threads() == threads
        outputs[workers] = _outputs(out)
    assert {"pretrain/loss.csv", "train/loss.csv"} <= set(outputs[1])
    assert sum(name.endswith(".bin") for name in outputs[1]) > 20
    for workers in (2, 3):
        assert sorted(outputs[workers]) == sorted(outputs[1])
        assert [name for name in outputs[1] if outputs[1][name] != outputs[workers][name]] == []


TIME_SPLIT = ["--set", "eval.test_run_fraction=0.34"]


@pytest.fixture(scope="module")
def tr_model(cli_world):
    """A checkpoint trained on the time-resolved split with the given `train.*`
    settings, trained once per settings."""
    built = {}

    def model(*settings: str) -> Path:
        if settings not in built:
            out = Path(cli_world) / f"tr_model{len(built)}"
            sets = [a for kv in settings for a in ("--set", f"train.{kv}")]
            argv = [*TIME_SPLIT, *sets, "train", "--split", "time-resolved", "--out", str(out)]
            assert _run(cli_world, *argv) == EXIT_OK
            built[settings] = out
        return built[settings]

    return model


def _sweep_time(cli_world, out, general, *specialized):
    return _run(
        cli_world, *TIME_SPLIT,
        "--set", "eval.deltas_tr=[-3,0]",
        "--set", "eval.max_trials_per_subject=6",
        "--set", "eval.eval_resolution=16",
        "sweep-time", "--general", str(general), "--out", str(out),
        *[f"--specialized={ckpt}" for ckpt in specialized],
    )


def test_sweep_time_command(cli_world, tr_model, tmp_path):
    # trained at -3.9 s, typed in decimal: the sweep computes -3 * 1.3 = -3.9000000000000004
    sweep_out = tmp_path / "sweep"
    assert _sweep_time(cli_world, sweep_out, tr_model(), tr_model("delta=-3.9")) == EXIT_OK
    sweep = json.loads((sweep_out / "sweep_time.json").read_text())
    assert len(sweep["points"]) == 2
    assert sweep["protocol"]["eval_resolution"] == 16
    assert sweep["protocol"]["specialized_available"] == [-3 * 1.3]
    assert [p["specialized"] is not None for p in sweep["points"]] == [True, False]
    assert (sweep_out / "sweep_time.svg").exists()


@pytest.mark.parametrize("delta", ["-2.6", "-3.5"])
def test_sweep_time_specialized_delta_off_the_sweep_is_config_error(cli_world, tr_model, tmp_path, capsys, delta):
    # -2.6 s is -2 TR, not among the shifts; -3.5 s is no TR multiple
    out = tmp_path / "sweep"
    spec = tr_model(f"delta={delta}")
    assert _sweep_time(cli_world, out, tr_model(), spec) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error at --specialized: checkpoint {spec}: specialized delta {delta} matches no")
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, copies, error",
    [(("delta=-3.9", "window_t=2.0"), 1, "checkpoint {spec}: its window (window_t 2.0, window_d 8.0) is not the"),
     (("delta=-3.9",), 2, "checkpoints {spec} and {spec} are both at shift -3.9000000000000004")],
    ids=["other_window_t", "two_at_one_shift"],
)
def test_sweep_time_rejects_specialized_models_it_cannot_score(cli_world, tr_model, tmp_path, capsys, settings,
                                                                copies, error):
    out = tmp_path / "sweep"
    spec = tr_model(*settings)
    assert _sweep_time(cli_world, out, tr_model(), *[spec] * copies) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error at --specialized: {error.format(spec=spec)}")
    assert not out.exists()


def test_sweep_duration_honours_eval_keys(cli_world, tmp_path):
    ckpts = []
    for k in (2, 1):  # given longest first
        ckpts.append(tmp_path / f"d{k}tr")
        assert _run(cli_world, "--set", f"train.window_d={k * 1.3}", "train", "--out", str(ckpts[-1])) == EXIT_OK
    out = tmp_path / "dur"
    assert _run(
        Path(cli_world), "--set", "eval.steps=2", "--set", "eval.eval_resolution=16",
        "sweep-duration", "--ckpt", *map(str, ckpts), "--out", str(out),
    ) == EXIT_OK
    sweep = json.loads((out / "sweep_duration.json").read_text())
    assert sweep["protocol"]["steps"] == 2 and sweep["protocol"]["eval_resolution"] == 16
    assert [(p["duration_s"], p["window_samples"]) for p in sweep["points"]] == [(1.3, 1), (2.6, 2)]
    assert sweep["protocol"]["durations"] == [1.3, 2.6]


def test_ablate_brainmod_scores_each_variant_it_is_given(cli_world, cli_ckpt, tmp_path):
    ckpts = [cli_ckpt]
    for name, setting in (("in", "aggregation_position=IN"), ("no_tstep", "timestep_layer_enabled=false")):
        ckpts.append(tmp_path / name)
        assert _run(cli_world, "--set", f"train.brain.{setting}", "train", "--out", str(ckpts[-1])) == EXIT_OK
    out = tmp_path / "ablate"
    assert _run(cli_world, "ablate-brainmod", "--ckpt", *map(str, ckpts), "--out", str(out)) == EXIT_OK
    ablation = json.loads((out / "ablation.json").read_text())
    assert sorted(ablation) == ["no_timestep_agg_out", "timestep_agg_in", "timestep_agg_out"]
    for name, mean in ablation.items():
        assert mean == json.loads((out / name / "report.json").read_text())["mean"]


@pytest.fixture(scope="module")
def cli_ckpt(cli_world):
    out = Path(cli_world) / "train_for_eval"
    assert _run(cli_world, "train", "--out", str(out)) == EXIT_OK
    return out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--set", "eval.deltas_tr=[]", "sweep-time", "--general", "CKPT"], "eval: eval.deltas_tr must"),
        (["--set", "eval.max_trials_per_subject=1", "sweep-time", "--general", "CKPT"],
         "eval: eval.max_trials_per_subject must"),
        (["--set", "eval.eval_resolution=-4", "eval", "--ckpt", "CKPT"], "eval: eval.eval_resolution must"),
        (["--set", "eval.test_run_fraction=1.5", "train", "--split", "time-resolved"],
         "eval: eval.test_run_fraction must"),
        (["--set", f"eval.test_run_fraction={DEFAULT_TEST_RUN_FRACTION}", "train", "--split", "time-resolved"],
         "eval.test_run_fraction: sub01: test fraction 0.09375 yields 0 test runs"),
        (["--set", f"eval.test_run_fraction={DEFAULT_TEST_RUN_FRACTION}", "sweep-time", "--general", "CKPT"],
         "eval.test_run_fraction: sub01: test fraction 0.09375 yields 0 test runs"),
        (["--set", "eval.steps=0", "infer", "--ckpt", "CKPT"], "eval: eval.steps must"),
        (["--set", "eval.steps=0", "sweep-duration", "--ckpt", "CKPT"], "eval: eval.steps must"),
        (["--set", "eval.steps=0", "ablate-brainmod", "--ckpt", "CKPT"], "eval: eval.steps must"),
        (["train", "--adapt-subject", "sub02", "--sessions-used", "1"], "--from-ckpt: required"),
        (["train", "--adapt-subject", "sub02", "--from-ckpt", "CKPT"], "--sessions-used: required"),
        (["train", "--from-ckpt", "CKPT"], "--from-ckpt: used only with --adapt-subject"),
        (["train", "--sessions-used", "1"], "--sessions-used: used only with --adapt-subject"),
        (["train", "--adapt-subject", "sub02", "--sessions-used", "1", "--from-ckpt", "CKPT", "--subjects", "sub01"],
         "--subjects: not used with --adapt-subject"),
        (["infer", "--ckpt", "CKPT", "--limit", "0"], "--limit: must be >= 1"),
        (["infer", "--ckpt", "CKPT", "--limit", "-1"], "--limit: must be >= 1"),
        (["sweep-duration", "--ckpt", "CKPT", "CKPT"], "--ckpt: checkpoints "),
        (["ablate-brainmod", "--ckpt", "CKPT", "CKPT"], "--ckpt: checkpoints "),
    ],
    ids=["no_shifts", "one_trial", "negative_resolution", "every_run_tested", "no_test_run_train",
         "no_test_run_sweep_time", "no_steps_infer",
         "no_steps_duration", "no_steps_ablate", "adapt_without_ckpt", "adapt_without_sessions",
         "ckpt_without_adapt", "sessions_without_adapt", "subjects_with_adapt", "limit_zero", "limit_negative",
         "repeated_duration", "repeated_variant"],
)
def test_eval_settings_rejected_before_decoding_or_training(cli_world, cli_ckpt, tmp_path, capsys, argv, error):
    # each bad setting or flag exits 2 naming it, before anything is trained, decoded or written
    out = tmp_path / "out"
    argv = [str(cli_ckpt) if a == "CKPT" else a for a in argv]
    code = _run(cli_world, "--set", "eval.test_run_fraction=0.34", "--set", "eval.deltas_tr=[0]",
                "--set", "eval.max_trials_per_subject=2", *argv, "--out", str(out))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error at {error}")
    assert not out.exists()


def test_dataset_setting_rejected_before_anything_is_written(tmp_path, capsys):
    code = _run(tmp_path, "--set", "dataset.voxel_lo=0", "gen-data")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error at dataset: dataset.voxel_lo must")
    assert not (tmp_path / "dataset").exists()


@pytest.mark.parametrize(
    "override, command",
    [
        ("brain.dropout=1.5", "train"),
        ("brain.dropout=1.5", "pretrain-gen"),
        ("brain.hidden=0", "train"),
        ("brain.aggregation_position=MID", "pretrain-gen"),
        ("warmup_steps=9", "train"),
        ("regime=bogus", "train"),
        ("cond_dropout=1", "pretrain-gen"),
        ("batch_size=0", "pretrain-gen"),
        ("batch_size=-4", "train"),
        ("max_lr=0", "pretrain-gen"),
        ("max_lr=-0.001", "train"),
        ("pretrain_steps=-1", "pretrain-gen"),
        ("offset_lambda=-0.1", "pretrain-gen"),
        ("weight_decay=-1", "pretrain-gen"),
        ("beta1=1.5", "pretrain-gen"),
        ("beta2=1", "train"),
        ("warmup_steps=-1", "train"),
    ],
)
def test_train_setting_rejected_before_anything_is_read_or_written(tmp_path, capsys, override, command):
    code = _run(tmp_path, "--set", f"train.{override}", command)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error at train: train.{override.split('=')[0]} must")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--set", "workers=-2"], ["--workers", "-2"]], ids=["key", "flag"])
def test_negative_workers_rejected(tmp_path, capsys, argv):
    code = _run(tmp_path, *argv, "gen-data")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error at workers: must be >= 0")
    assert not any(tmp_path.iterdir())


def test_train_flags_are_no_second_names_for_train_keys():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    renames = {a.dest: a.option_strings for a in sub.choices["train"]._actions if a.dest in DEFAULT_CONFIG["train"]}
    kept = {
        dest for dest, path in TRAIN_FLAGS_CALLED_OUTSIDE_SRC.items()
        if any(f'"{flag}"' in path.read_text() for flag in renames.get(dest, ()))
    }
    assert kept == set(TRAIN_FLAGS_CALLED_OUTSIDE_SRC), "an outside caller is gone; drop its flag"
    assert sorted(set(renames) - kept) == []


@pytest.mark.parametrize("argv", [["selftest"], ["train", "--window-t", "3"], ["train", "--window-d", "6"],
                                  ["train", "--delta", "0"]])
def test_removed_commands_and_flags_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as e:
        dispatch(argv)
    assert e.value.code == EXIT_CONFIG


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        dispatch(["frobnicate"])


def test_default_config_is_spec_scale():
    assert DEFAULT_CONFIG["dataset"]["n_train_unique"] == 500
    assert DEFAULT_CONFIG["train"]["steps"] == 10_000
    assert DEFAULT_CONFIG["train"]["pretrain_steps"] == 5_000
    assert DEFAULT_CONFIG["eval"]["steps"] == 20
    assert DEFAULT_CONFIG["eval"]["guidance"] == 3.0


def test_default_config_is_the_dataclass_defaults():
    config = resolve_config(None, [])
    unet = UNetConfig(resolution=DatasetConfig().resolution, tokens=TrainConfig().brain.tokens,
                      token_dim=TrainConfig().brain.token_dim)
    assert train_config(config) == TrainConfig(unet=unet)
    assert dataset_config(config) == DatasetConfig()
    assert eval_config(config) == EvalConfig()


def test_public_config_keys():
    def dotted(tree, prefix=""):
        for k, v in tree.items():
            yield from dotted(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]

    assert set(dotted(DEFAULT_CONFIG)) == {
        "seed", "workers", "paths.out_root", "paths.data", "paths.pretrain",
        "dataset.n_subjects", "dataset.n_train_unique", "dataset.n_test_unique", "dataset.repetitions",
        "dataset.trials_per_run", "dataset.tr", "dataset.resolution", "dataset.noise_scale",
        "dataset.drift_scale", "dataset.voxel_lo", "dataset.voxel_hi",
        "train.steps", "train.pretrain_steps", "train.batch_size", "train.max_lr", "train.weight_decay",
        "train.beta1", "train.beta2", "train.warmup_steps", "train.cond_dropout", "train.regime",
        "train.window_t", "train.window_d", "train.delta", "train.offset_lambda", "train.shuffle_conditioning",
        "train.brain.hidden", "train.brain.tokens", "train.brain.token_dim", "train.brain.dropout",
        "train.brain.timestep_layer_enabled", "train.brain.aggregation_position",
        "train.unet.channels", "train.unet.t_max",
        "eval.steps", "eval.guidance", "eval.eval_resolution", "eval.test_run_fraction", "eval.deltas_tr",
        "eval.max_trials_per_subject",
    }


def test_keys_reach_their_fields():
    config = resolve_config(None, [
        "seed=5", "dataset.resolution=16", "dataset.voxel_lo=25", "dataset.voxel_hi=40",
        "dataset.noise_scale=2", "dataset.drift_scale=0.5", "train.beta1=0.8", "train.beta2=0.99",
        "train.regime=all", "train.brain.tokens=4", "train.brain.token_dim=8", "train.unet.channels=[8,8,16]",
    ])
    tc, dc = train_config(config), dataset_config(config)
    assert (tc.seed, tc.beta1, tc.beta2, tc.regime) == (5, 0.8, 0.99, "all")
    assert tc.unet == UNetConfig(resolution=16, channels=(8, 8, 16), tokens=4, token_dim=8)
    assert (dc.voxel_lo, dc.voxel_hi, dc.resolution) == (25, 40, 16)
    assert (dc.noise_scale, dc.drift_scale) == (2, 0.5)


@pytest.mark.parametrize(
    "override, message",
    [
        ("dataset.n_subjects=abc", "config error at dataset.n_subjects: "),
        ("dataset.n_subjects=true", "config error at dataset.n_subjects: "),
        ("train.unet.channels=8", "config error at train.unet.channels: "),
        ("train.regime=3", "config error at train.regime: "),
    ],
)
def test_wrongly_typed_override_is_config_error(override, message, capsys):
    assert dispatch(["--set", override, "gen-data"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_wrongly_typed_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eval": {"deltas_tr": 3}}))
    assert dispatch(["--config", str(bad), "gen-data"]) == EXIT_CONFIG
    assert "config error at eval.deltas_tr: " in capsys.readouterr().err
    bad.write_text("[1]")
    assert dispatch(["--config", str(bad), "gen-data"]) == EXIT_CONFIG
    bad.write_text(json.dumps({"train": {"steps": 5}}))
    assert dispatch(["--config", str(bad), "--set", "train.steps.x=1", "gen-data"]) == EXIT_CONFIG


def test_config_file_not_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "notjson.json"
    bad.write_text("nope")
    assert dispatch(["--config", str(bad), "gen-data"]) == EXIT_CONFIG
    assert f"config error at {bad}: not JSON" in capsys.readouterr().err


def test_int_accepted_for_float_key():
    config = resolve_config(None, ["train.max_lr=1", "dataset.tr=2"])
    assert train_config(config).max_lr == 1 and dataset_config(config).tr == 2


# A desk B=32 pretraining step, measured in a fresh interpreter so that the
# count does not depend on what the test process allocated before.
_FAULT_PROBE = """
import resource
from bold2img.cli import _retain_freed_memory
from bold2img.diffgen import UNetConfig, init_unet, unet_forward
from bold2img.substrate import RngKey, Tensor, ops

_retain_freed_memory()
cfg = UNetConfig()
key = RngKey(0, ("fault_probe",))
store = init_unet(cfg, key.child("init"))
assert store.trainable_names() == store.names()
b, r = 32, cfg.resolution
x = key.child("x").normal((b, r, r, 3))
t = key.child("t").generator().integers(0, cfg.t_max, b)
tokens = Tensor(key.child("tokens").normal((b, cfg.tokens, cfg.token_dim)))
eps = key.child("eps").normal((b, r, r, 3))


def step():
    store.zero_grads()
    ops.mse_loss(unet_forward(x, t, tokens, store, cfg), eps).backward()


step()
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc page faults")
def test_retained_memory_serves_steady_training_steps_without_page_faults():
    src = str(Path(bold2img.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.returncode == 0, done.stderr
    faults_per_step = float(done.stdout.split()[-1])
    assert faults_per_step < 300  # about 34k when glibc returns freed pages to the kernel


def test_retain_freed_memory_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli._retain_freed_memory() is None
