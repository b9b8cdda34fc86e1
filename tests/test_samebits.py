"""The comparison step of tools/samebits.py on two small made-up output trees."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # samebits imports its sibling benchpair, as when run as a script
import samebits  # noqa: E402


def _tree(top: Path, payload: bytes):
    """An output root in miniature: a blob, and a resolved config that names the root."""
    (top / "train" / "ckpt").mkdir(parents=True)
    (top / "train" / "ckpt" / "unet__w.bin").write_bytes(payload)
    config = {"paths": {"out_root": str(top), "data": str(top / "dataset")}, "seed": 0}
    (top / "train" / "resolved_config.json").write_text(json.dumps(config, sort_keys=True, indent=1))
    (top / "loss.csv").write_text("step,loss\n0,1.5\n")


def test_one_flipped_byte_is_named_and_the_root_path_is_not(tmp_path):
    payload = bytes(range(64))
    flipped = bytearray(payload)
    flipped[37] ^= 1
    a, b = tmp_path / "parent-out", tmp_path / "change-out-longer-name"
    _tree(a, payload)
    _tree(b, bytes(flipped))
    assert samebits.compare_trees(a, b) == ["differs: train/ckpt/unet__w.bin"]
    (b / "train" / "ckpt" / "unet__w.bin").write_bytes(payload)
    assert samebits.compare_trees(a, b) == []


def test_a_file_on_one_side_only_is_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _tree(a, b"x")
    _tree(b, b"x")
    (b / "infer").mkdir()
    (b / "infer" / "recon00000.bin").write_bytes(b"y")
    assert samebits.compare_trees(a, b) == [f"only in {b}: infer/recon00000.bin"]


def test_the_root_is_masked_only_in_resolved_configs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _tree(a, b"x")
    _tree(b, b"x")
    (a / "report.json").write_text(json.dumps({"ckpt": str(a / "train")}))
    (b / "report.json").write_text(json.dumps({"ckpt": str(b / "train")}))
    assert samebits.compare_trees(a, b) == ["differs: report.json"]
