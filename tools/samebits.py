"""Run the toy pipeline on two revisions and compare every output byte for byte.

    python3 tools/samebits.py --parent REV --change REV --scratch DIR

Both revisions are checked out as sibling `git worktree`s under `--scratch`,
with `tools/benchpair.py`'s helper. Each side runs the toy pipeline of README's
quick start into its own output root
`<scratch>/<side>-out`: `gen-data`, `preprocess`, `pretrain-gen`,
`train --regime lora`, `train --regime all`, `eval` and `infer --limit 4`,
then the three sweeps over models trained for them: `sweep-duration` over
the `train` model and one at `train.window_d` 2.6 s, `ablate-brainmod` over
it and one at `train.brain.aggregation_position` IN, and `sweep-time` over a
time-resolved general model and one specialized at `train.delta` -3.9 s.
Every command runs at `--workers 2`. Then every file under the two output roots
is compared byte for byte. In `resolved_config.json` the output root is
masked first, since it names the side. The script names each file that
differs or exists on one side only, exits 1 if there is any and 0 if the
trees are the same, and removes the worktrees when it ends (the outputs
stay). Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from benchpair import commits, worktrees

TOY = [
    "dataset.n_subjects=2", "dataset.n_train_unique=20", "dataset.n_test_unique=5", "dataset.trials_per_run=15",
    "dataset.voxel_lo=30", "dataset.voxel_hi=50", "train.steps=200", "train.pretrain_steps=100",
    "train.warmup_steps=20", "train.batch_size=8", "train.brain.hidden=32", "train.unet.channels=[8,8,16]",
]
TIME_SPLIT = ["--set", "eval.test_run_fraction=0.34"]  # the toy's runs need it to hold test runs
ROOT_MASK = b"<output root>"
RUN_TIMEOUT_S = 1800.0


def pipeline(root: Path) -> list[list[str]]:
    """The toy commands, arguments after the global options, writing under root."""
    return [
        ["gen-data"],
        ["preprocess"],
        ["pretrain-gen"],
        ["train", "--regime", "lora"],
        ["train", "--regime", "all", "--out", str(root / "train-all")],
        ["eval", "--ckpt", str(root / "train")],
        ["infer", "--ckpt", str(root / "train"), "--limit", "4"],
        ["--set", "train.window_d=2.6", "train", "--out", str(root / "train-d2tr")],
        ["sweep-duration", "--ckpt", str(root / "train"), str(root / "train-d2tr")],
        ["--set", "train.brain.aggregation_position=IN", "train", "--out", str(root / "train-agg-in")],
        ["ablate-brainmod", "--ckpt", str(root / "train"), str(root / "train-agg-in")],
        [*TIME_SPLIT, "train", "--split", "time-resolved", "--out", str(root / "train-tr")],
        [*TIME_SPLIT, "--set", "train.delta=-3.9", "train", "--split", "time-resolved",
         "--out", str(root / "train-tr-m3")],
        [*TIME_SPLIT, "--set", "eval.deltas_tr=[-3,0,2]", "sweep-time", "--general", str(root / "train-tr"),
         "--specialized", str(root / "train-tr-m3")],
    ]


def run_pipeline(checkout: Path, root: Path):
    env = dict(os.environ, BOLD2IMG_OUT=str(root), PYTHONPATH=str(checkout / "src"))
    options = ["--workers=2"] + [a for kv in TOY for a in ("--set", kv)]
    for args in pipeline(root):
        cmd = [sys.executable, "-c", "from bold2img.cli import main; main()", *options, *args]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode:
            raise RuntimeError(f"{checkout.name}: {' '.join(args)} exited {proc.returncode}: {proc.stderr[-400:]}")
        print(f"{checkout.name}: {' '.join(args)}", flush=True)


def _content(path: Path, root: Path) -> bytes:
    data = path.read_bytes()
    return data.replace(str(root).encode(), ROOT_MASK) if path.name == "resolved_config.json" else data


def compare_trees(a: Path, b: Path) -> list[str]:
    """One line per file under a or b whose bytes differ, or that only one of
    them has, by relative path; the root's own path is masked in
    `resolved_config.json`."""
    files = {side: {p.relative_to(top) for p in top.rglob("*") if p.is_file()} for side, top in (("a", a), ("b", b))}
    lines = []
    for rel in sorted(files["a"] | files["b"]):
        if rel not in files["b"]:
            lines.append(f"only in {a}: {rel}")
        elif rel not in files["a"]:
            lines.append(f"only in {b}: {rel}")
        elif _content(a / rel, a) != _content(b / rel, b):
            lines.append(f"differs: {rel}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--scratch", required=True, type=Path, help="directory for the worktrees and outputs")
    args = p.parse_args(argv)

    repo = Path(__file__).resolve().parents[1]
    revs = commits(repo, args.parent, args.change)
    scratch = args.scratch.resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    roots = {side: scratch / f"{side}-out" for side in revs}
    for root in roots.values():
        if root.exists() and any(root.iterdir()):
            raise SystemExit(f"{root} is not empty; give a fresh --scratch")
    with worktrees(repo, scratch, revs) as checkouts:
        for side in revs:
            run_pipeline(checkouts[side], roots[side])
    lines = compare_trees(roots["parent"], roots["change"])
    if lines:
        print(*lines, sep="\n")
        return 1
    count = sum(p.is_file() for p in roots["parent"].rglob("*"))
    print(f"same bits: {count} files under {roots['parent']} and {roots['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
