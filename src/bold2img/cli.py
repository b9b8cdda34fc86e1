"""Command-line entry point wiring every stage together.

One flat binary with subcommands; a shared JSON config holds all knobs,
`--set` overrides a key by its dotted path (--set train.steps=2000), and
every run writes its resolved config next to its outputs so any result can be
reproduced from that file alone. The only environment variable honored is
BOLD2IMG_OUT (output root).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

from .evalkit import (
    EvalConfig,
    duration_checkpoints,
    duration_sweep,
    emit_report,
    emit_sweep,
    evaluate_split,
    held_subject_split,
    keyed_checkpoints,
    match_specialized,
    time_sweep,
)
from .prep import PreprocCache, build_split_standard, build_split_time_resolved, extract_epochs
from .substrate import RngKey, write_tensor
from .synthcortex import DatasetConfig, build_dataset, load_manifest
from .trainer import (
    REGIMES,
    TrainConfig,
    adapt_new_subject,
    config_from_json,
    config_to_json,
    infer,
    load_train_state,
    pretrain_generator,
    recorded_train_config,
    train_single_stage,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


def _train_defaults() -> dict:
    """TrainConfig's fields, less the four that `train_config` fills from other keys."""
    tree = config_to_json(TrainConfig())
    del tree["seed"]
    for k in ("resolution", "tokens", "token_dim"):
        del tree["unet"][k]
    return tree


# The `dataset`, `train` and `eval` sections are the fields of DatasetConfig,
# TrainConfig and EvalConfig at their defaults; a key is its field path.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "workers": 0,  # 0 -> all available cores
    "paths": {"out_root": "b2i_out", "data": "", "pretrain": ""},
    "dataset": config_to_json(DatasetConfig()),
    "train": _train_defaults(),
    "eval": config_to_json(EvalConfig()),
}


def _merge_validate(defaults, given, path=""):
    """Recursive merge rejecting unknown keys and values whose JSON type differs
    from the default's (an int may stand for a float); returns the resolved dict."""
    if not isinstance(given, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {type(given).__name__}")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"{path}{key}", "unknown key")
    out = {}
    for key, dval in defaults.items():
        gval = given.get(key, dval)
        if isinstance(dval, dict):
            out[key] = _merge_validate(dval, gval, f"{path}{key}.")
        elif type(gval) is type(dval) or (type(dval) is float and type(gval) is int):
            out[key] = json.loads(json.dumps(gval))  # deep copy
        else:
            raise ConfigError(f"{path}{key}", f"expected {type(dval).__name__}, got {type(gval).__name__}")
    return out


def _apply_override(given: dict, dotted: str, raw: str):
    """Write one `--set` value into the given tree; `_merge_validate` checks it."""
    *parents, leaf = dotted.split(".")
    node = given
    for k in parents:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(dotted, f"{k} is not an object")
    try:
        node[leaf] = json.loads(raw)
    except json.JSONDecodeError:
        node[leaf] = raw  # bare strings (e.g. regime names)


def resolve_config(config_file: str | None, overrides: list[str]) -> dict:
    given = {}
    if config_file:
        try:
            given = json.loads(Path(config_file).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(config_file, f"not JSON ({e})") from None
        if not isinstance(given, dict):
            raise ConfigError(config_file, f"expected an object, got {type(given).__name__}")
        given.pop("run", None)  # provenance block from an emitted resolved config
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key.path=value")
        _apply_override(given, *item.split("=", 1))
    config = _merge_validate(DEFAULT_CONFIG, given)
    root = os.environ.get("BOLD2IMG_OUT", config["paths"]["out_root"])
    config["paths"]["out_root"] = root
    if not config["paths"]["data"]:
        config["paths"]["data"] = str(Path(root) / "dataset")
    if not config["paths"]["pretrain"]:
        config["paths"]["pretrain"] = str(Path(root) / "pretrain")
    if config["workers"] < 0:
        raise ConfigError("workers", f"must be >= 0 (0 means all cores), got {config['workers']}")
    if not config["workers"]:
        config["workers"] = os.cpu_count() or 1
    return config


def _config_checked(where: str, check, *args):
    """`check(*args)`, whose ValueError is a config error at `where`."""
    try:
        return check(*args)
    except ValueError as e:
        raise ConfigError(where, str(e)) from None


def _validated(config, section: str):
    """Run the section's own checks; a rejected value is a config error."""
    _config_checked(section, config.validate)
    return config


def dataset_config(c: dict) -> DatasetConfig:
    return _validated(config_from_json(DatasetConfig, c["dataset"]), "dataset")


def train_config(c: dict) -> TrainConfig:
    """The train section plus the seed and the U-Net fields linked to other keys."""
    t, brain = c["train"], c["train"]["brain"]
    unet = dict(t["unet"], resolution=c["dataset"]["resolution"], tokens=brain["tokens"], token_dim=brain["token_dim"])
    return _validated(config_from_json(TrainConfig, dict(t, seed=c["seed"], unet=unet)), "train")


def eval_config(c: dict) -> EvalConfig:
    return _validated(config_from_json(EvalConfig, c["eval"]), "eval")


def _write_resolved(config: dict, command: str, args: dict, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dict(config)
    doc["run"] = {"command": command, "args": {k: v for k, v in args.items() if v is not None}}
    (out_dir / "resolved_config.json").write_text(json.dumps(doc, sort_keys=True, indent=1))


def _split_for(manifest, kind: str, config: dict):
    if kind == "standard":
        return build_split_standard(manifest)
    if kind == "time-resolved":
        key, fraction = RngKey(config["seed"], ("split",)), eval_config(config).test_run_fraction
        # the split rejects a fraction that leaves a subject no test or no train run
        return _config_checked("eval.test_run_fraction", build_split_time_resolved, manifest, key, fraction)
    raise ConfigError("split", f"unknown split kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(config, args):
    out = Path(config["paths"]["data"])
    manifest = build_dataset(
        dataset_config(config), RngKey(config["seed"], ("dataset",)), out, workers=config["workers"]
    )
    _write_resolved(config, "gen-data", vars(args), out)
    print(f"dataset: {len(manifest.stimulus_ids)} stimuli, {len(manifest.subject_ids)} subjects -> {out}")
    return EXIT_OK


def cmd_preprocess(config, args):
    manifest = load_manifest(config["paths"]["data"])
    cache = PreprocCache(manifest, workers=config["workers"]).build()
    _write_resolved(config, "preprocess", vars(args), cache.dir)
    print(f"preprocessed runs cached in {cache.dir}")
    return EXIT_OK


def cmd_pretrain_gen(config, args):
    tc = train_config(config)
    manifest = load_manifest(config["paths"]["data"])
    out = Path(config["paths"]["pretrain"])
    pretrain_generator(manifest, tc, out, workers=config["workers"])
    _write_resolved(config, "pretrain-gen", vars(args), out)
    print(f"pretrained generator -> {out}")
    return EXIT_OK


def cmd_train(config, args):
    adapting = bool(args.adapt_subject)
    for flag, value in (("--from-ckpt", args.from_ckpt), ("--sessions-used", args.sessions_used)):
        if (value is None) == adapting:
            raise ConfigError(flag, "required with --adapt-subject" if adapting else "used only with --adapt-subject")
    if adapting and args.subjects:
        raise ConfigError("--subjects", "not used with --adapt-subject, which trains that one subject")
    if args.regime is not None:  # recorded in the resolved config
        config["train"]["regime"] = args.regime
    tc = train_config(config)
    manifest = load_manifest(config["paths"]["data"])
    split = _split_for(manifest, args.split, config)
    out = Path(args.out or Path(config["paths"]["out_root"]) / "train")
    subjects = args.subjects.split(",") if args.subjects else None
    if adapting:
        ckpt = adapt_new_subject(
            args.from_ckpt, manifest, split, args.adapt_subject, args.sessions_used, tc, out, config["workers"]
        )
    else:
        ckpt = train_single_stage(
            manifest, split, config["paths"]["pretrain"], tc, out, subjects=subjects, workers=config["workers"]
        )
    _write_resolved(config, "train", vars(args), out)
    print(f"trained checkpoint -> {ckpt}")
    return EXIT_OK


def cmd_infer(config, args):
    if args.limit is not None and args.limit < 1:
        raise ConfigError("--limit", f"must be >= 1, got {args.limit}")
    manifest = load_manifest(config["paths"]["data"])
    split = _split_for(manifest, args.split, config)
    cache = PreprocCache(manifest, workers=config["workers"]).build()
    store, _, tc, _ = load_train_state(args.ckpt)
    split = held_subject_split(split, store, args.ckpt)
    refs = {s: split.test_refs[s][: args.limit] for s in split.test_refs}
    delta = float(tc.delta) if args.delta is None else args.delta  # the checkpoint's shift unless overridden
    epochs, _ = extract_epochs(cache, refs, tc.window_t, tc.window_d, delta)
    ev = eval_config(config)
    images = infer(store, tc, epochs, RngKey(config["seed"], ("infer",)), ev.steps, ev.guidance, config["workers"])
    out = Path(args.out or Path(config["paths"]["out_root"]) / "infer")
    out.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        write_tensor(out / f"recon{i:05d}.bin", img)
    records = [
        {
            "subject": e.subject_id,
            "stimulus_id": e.stimulus_id,
            "run_id": e.run_id,
            "event_index": e.event_index,
            "delta": e.delta,
            "repetition": e.repetition,
            "steps": ev.steps,
            "guidance": ev.guidance,
        }
        for e in epochs
    ]
    (out / "records.json").write_text(json.dumps(records, sort_keys=True, indent=1))
    _write_resolved(config, "infer", vars(args), out)
    print(f"{len(images)} reconstructions -> {out}")
    return EXIT_OK


def cmd_eval(config, args):
    manifest = load_manifest(config["paths"]["data"])
    split = _split_for(manifest, args.split, config)
    report = evaluate_split(
        args.ckpt, manifest, split, RngKey(config["seed"], ("eval",)), eval_config(config), workers=config["workers"]
    )
    out = Path(args.out or Path(config["paths"]["out_root"]) / "eval")
    emit_report(report, out)
    _write_resolved(config, "eval", vars(args), out)
    for metric, value in sorted(report.mean.items()):
        print(f"{metric}: {value:.4f} +- {report.sem[metric]:.4f}")
    return EXIT_OK


def cmd_sweep_time(config, args):
    manifest = load_manifest(config["paths"]["data"])
    split = _split_for(manifest, "time-resolved", config)
    ev = eval_config(config)
    deltas = [k * manifest.tr for k in ev.deltas_tr]
    general = recorded_train_config(args.general)  # time_sweep matches again, once it has loaded the model
    _config_checked("--specialized", match_specialized, general, args.specialized, deltas, manifest.tr)
    key = RngKey(config["seed"], ("sweep-time",))
    sweep = time_sweep(args.general, args.specialized, manifest, split, key, deltas, ev, config["workers"])
    out = Path(args.out or Path(config["paths"]["out_root"]) / "sweep_time")
    emit_sweep(sweep, out, "sweep_time")
    _write_resolved(config, "sweep-time", vars(args), out)
    print(f"time sweep over {len(deltas)} shifts -> {out}")
    return EXIT_OK


def cmd_sweep_duration(config, args):
    ev = eval_config(config)
    manifest = load_manifest(config["paths"]["data"])
    _config_checked("--ckpt", duration_checkpoints, args.ckpt, manifest.tr)
    split = _split_for(manifest, "standard", config)
    out = Path(args.out or Path(config["paths"]["out_root"]) / "sweep_duration")
    key = RngKey(config["seed"], ("sweep-duration",))
    sweep = duration_sweep(args.ckpt, manifest, split, key, ev, config["workers"])
    emit_sweep(sweep, out, "sweep_duration")
    _write_resolved(config, "sweep-duration", vars(args), out)
    print(f"duration sweep over {sweep.protocol['durations']} -> {out}")
    return EXIT_OK


def cmd_ablate_brainmod(config, args):
    ev = eval_config(config)
    variants = _config_checked("--ckpt", keyed_checkpoints, args.ckpt, lambda tc: tc.brain.variant(), "variant")
    manifest = load_manifest(config["paths"]["data"])
    split = _split_for(manifest, "standard", config)
    out = Path(args.out or Path(config["paths"]["out_root"]) / "ablate_brainmod")
    results = {}
    for name, (ckpt, _) in variants.items():
        report = evaluate_split(
            ckpt, manifest, split, RngKey(config["seed"], ("ablate", name)), ev, workers=config["workers"]
        )
        emit_report(report, out / name)
        results[name] = report.mean
    (out / "ablation.json").write_text(json.dumps(results, sort_keys=True, indent=1))
    _write_resolved(config, "ablate-brainmod", vars(args), out)
    for name, mean in sorted(results.items()):
        print(f"{name}: two_way_low={mean['two_way_low']:.1f} miou={mean['miou']:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bold2img", description=__doc__)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE", help="config override")
    p.add_argument(
        "--workers",
        type=int,
        help="the number of lanes, one BLAS thread each, that write the stimuli and runs of gen-data and"
        " preprocess, decode trials and compute the shards of each training step (default: all cores)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data")
    sub.add_parser("preprocess")
    sub.add_parser("pretrain-gen")

    t = sub.add_parser("train")
    t.add_argument("--regime", choices=REGIMES)
    t.add_argument("--adapt-subject")
    t.add_argument("--from-ckpt")
    t.add_argument("--sessions-used", type=int)
    t.add_argument("--subjects")
    t.add_argument("--split", default="standard", choices=["standard", "time-resolved"])
    t.add_argument("--out")

    i = sub.add_parser("infer")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--split", default="standard", choices=["standard", "time-resolved"])
    i.add_argument("--delta", type=float)
    i.add_argument("--limit", type=int)
    i.add_argument("--out")

    e = sub.add_parser("eval")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", default="standard", choices=["standard", "time-resolved"])
    e.add_argument("--out")

    st = sub.add_parser("sweep-time")
    st.add_argument("--general", required=True)
    st.add_argument("--specialized", action="append", default=[], metavar="CKPT")
    st.add_argument("--out")

    sd = sub.add_parser("sweep-duration")
    sd.add_argument("--ckpt", required=True, nargs="+")
    sd.add_argument("--out")

    ab = sub.add_parser("ablate-brainmod")
    ab.add_argument("--ckpt", required=True, nargs="+")
    ab.add_argument("--out")
    return p


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "preprocess": cmd_preprocess,
    "pretrain-gen": cmd_pretrain_gen,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "sweep-time": cmd_sweep_time,
    "sweep-duration": cmd_sweep_duration,
    "ablate-brainmod": cmd_ablate_brainmod,
}


def _retain_freed_memory() -> None:
    """Make the C allocator keep freed memory in the process for reuse.

    Activations and gradients are multi-MB numpy arrays. glibc serves such
    blocks with mmap, or from a heap top that it trims, so each free hands
    the pages back to the kernel and the next array of that size faults in
    fresh zeroed pages: about 34k minor faults (some 130 MB) per desk B=32
    pretraining step. mallopt's M_MMAP_MAX (-4) = 0 serves every block from
    the heap and M_TRIM_THRESHOLD (-1) = 2**31 - 1 never trims it, so freed
    pages stay mapped and the next step reuses them. M_MMAP_THRESHOLD would
    not do: glibc caps it at 32 MB, so any larger array would still be
    mapped afresh on each use. Resident memory then does not shrink after
    its peak. Where libc has no mallopt (not glibc), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-4, 0)  # M_MMAP_MAX
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


def dispatch(argv: list[str]) -> int:
    _retain_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        workers = [f"workers={args.workers}"] if args.workers else []  # the flag is one more override
        config = resolve_config(args.config, args.set + workers)
        return _COMMANDS[args.command](config, args)
    except ConfigError as e:
        print(f"config error at {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", *getattr(e, "__notes__", ()), sep="\n", file=sys.stderr)
        return EXIT_FAIL


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
