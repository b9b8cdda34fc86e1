"""Every knob the benchmark passes is a public config key that reaches its field.

`perfbench/run.py` sets each knob of its desk configuration with `--set`; a
renamed or removed key fails only the benchmark, so resolve its workloads'
configurations here through the CLI's own parser and config resolution.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bold2img.cli import build_parser, dataset_config, eval_config, resolve_config, train_config

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _run_module():
    saved_path = list(sys.path)  # run.py puts its own directory first
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved_path
    return mod


def _resolve(run, knobs: dict) -> dict:
    args = build_parser().parse_args(run.cli_args(knobs, "gen-data"))
    return resolve_config(None, args.set)


def _at(config: dict, dotted: str):
    for k in dotted.split("."):
        config = config[k]
    return config


@pytest.mark.parametrize("workload", ["desk", "decode"])
def test_benchmark_knobs_reach_their_fields(workload, tmp_path):
    run = _run_module()
    knobs = run.DESK if workload == "desk" else {**run.DESK, **run.DECODE_DATA}
    knobs = {"seed": 3, "paths.data": str(tmp_path / "dataset"), **knobs}
    config = _resolve(run, knobs)
    assert {k: _at(config, k) for k in knobs} == knobs

    tc, dc, ev = train_config(config), dataset_config(config), eval_config(config)
    assert (tc.seed, tc.regime, tc.beta1, tc.beta2) == (3, knobs["train.regime"], knobs["train.beta1"],
                                                        knobs["train.beta2"])
    assert (tc.unet.resolution, tc.unet.tokens, tc.unet.token_dim) == (
        knobs["dataset.resolution"], knobs["train.brain.tokens"], knobs["train.brain.token_dim"]
    )
    assert (dc.voxel_lo, dc.voxel_hi, dc.noise_scale, dc.drift_scale, dc.n_test_unique) == (
        knobs["dataset.voxel_lo"], knobs["dataset.voxel_hi"], knobs["dataset.noise_scale"],
        knobs["dataset.drift_scale"], knobs["dataset.n_test_unique"],
    )
    assert ev.deltas_tr == tuple(knobs["eval.deltas_tr"]) and ev.steps == knobs["eval.steps"]
