"""bold2img benchmark: four batch workloads driven through the public CLI.

    python3 perfbench/run.py --workload {pretrain,joint,decode,datagen,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``./src``. Each workload prepares its inputs from the seed (the set-up, done
three times), then runs closed-loop timed calls until the next call would
overrun ``--seconds`` (at least two calls, five when tracing). Every set-up
and every call runs in a fresh ``perfbench/child.py`` process. Every knob is
passed with ``--set``. After each call the outputs are checked; a non-zero
exit or a failed check counts every operation of that call as failed.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates traced and untraced calls (traced, untraced, traced, ...) and
reports the per-layer metrics of the traced calls, per operation of the
workload: a training step, a test trial, or a BOLD run. Times are self times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A provenance record of
each run, and the spans of the last traced call, go to ``.perfbench/results``.
Exit code 0 when every check passed, 1 when a check failed, 2 when the run
could not start (no ``src/bold2img`` in the working directory, bad arguments).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
from tracer import OP_KINDS  # noqa: E402

RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
WORKERS = min(2, os.cpu_count() or 1)
LOSS_WINDOW = 4
COMPUTED = ("substrate.conv2d.gflop", "substrate.conv2d.wgrad_gflop", "substrate.conv2d.gbyte")

WHY = {
    "pretrain": "pretrain-gen with every U-Net weight trainable: the only conv weight gradients and full AdamW",
    "joint": "train --regime lora on 4 subjects: brain module and LoRA, U-Net backward without conv weight grads",
    "decode": "eval on a setup-built checkpoint: forward only, 20-step DDIM at CFG 3.0, all five metrics",
    "datagen": "gen-data then preprocess at desk scale: synthcortex, prep and disk writes, no autodiff",
}

# The desk configuration, every knob explicit. Workloads override a few keys.
DESK = {
    "workers": WORKERS,
    "dataset.n_subjects": 4,
    "dataset.n_train_unique": 500,
    "dataset.n_test_unique": 100,
    "dataset.repetitions": 3,
    "dataset.trials_per_run": 50,
    "dataset.tr": 1.3,
    "dataset.resolution": 32,
    "dataset.noise_scale": 1.0,
    "dataset.drift_scale": 1.0,
    "dataset.voxel_lo": 400,
    "dataset.voxel_hi": 600,
    "train.steps": 8,
    "train.pretrain_steps": 8,
    "train.batch_size": 32,
    "train.max_lr": 1e-3,
    "train.weight_decay": 0.01,
    "train.beta1": 0.9,
    "train.beta2": 0.999,
    "train.warmup_steps": 2,
    "train.cond_dropout": 0.1,
    "train.regime": "lora",
    "train.window_t": 3.0,
    "train.window_d": 8.0,
    "train.delta": 0.0,
    "train.offset_lambda": 0.1,
    "train.shuffle_conditioning": False,
    "train.brain.hidden": 128,
    "train.brain.tokens": 8,
    "train.brain.token_dim": 64,
    "train.brain.dropout": 0.5,
    "train.brain.timestep_layer_enabled": True,
    "train.brain.aggregation_position": "OUT",
    "train.unet.channels": [32, 64, 128],
    "train.unet.t_max": 1000,
    "eval.steps": 20,
    "eval.guidance": 3.0,
    "eval.eval_resolution": 32,
    "eval.test_run_fraction": 45.0 / 480.0,
    "eval.deltas_tr": list(range(-6, 10)),
    "eval.max_trials_per_subject": 0,
}

# decode: a test side of 4 stimuli (16 trials, one DDIM batch); 42 trials per
# run keeps 36 runs per subject, as at desk scale
DECODE_DATA = {"dataset.n_test_unique": 4, "dataset.trials_per_run": 42}


def cli_args(config: dict, *command) -> list[str]:
    argv = ["--workers", str(config["workers"])]
    for key, value in config.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv + [str(c) for c in command]


def dataset_plan(config: dict) -> dict:
    n_stimuli = config["dataset.n_train_unique"] + config["dataset.n_test_unique"]
    trials = n_stimuli * config["dataset.repetitions"]
    return {
        "n_subjects": config["dataset.n_subjects"],
        "n_stimuli": n_stimuli,
        "trials_per_run": config["dataset.trials_per_run"],
        "runs_per_subject": trials // config["dataset.trials_per_run"],
        "voxel_lo": config["dataset.voxel_lo"],
        "voxel_hi": config["dataset.voxel_hi"],
        "window_t": config["train.window_t"],
        "window_d": config["train.window_d"],
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    unit: str  # one operation: step | trial | run
    rate_name: str  # the throughput's name in the report
    rate_unit: str
    config: dict
    items_per_op: int = 1  # samples per step for training workloads

    @property
    def why(self) -> str:
        return WHY[self.name]

    def base(self, root: Path, seed: int) -> dict:
        return {
            "seed": seed,
            "paths.out_root": str(root),
            "paths.data": str(root / "dataset"),
            "paths.pretrain": str(root / "pretrain"),
            **self.config,
        }

    def setup_job(self, root: Path, seed: int) -> list[list[str]]:
        """The subcommands that build a call's inputs under `root`."""
        cfg = self.base(root, seed)
        if self.name == "datagen":
            return []
        job = [cli_args(cfg, "gen-data")]
        if self.name in ("joint", "decode"):
            job.append(cli_args(cfg, "preprocess"))
            job.append(cli_args({**cfg, "train.pretrain_steps": 0}, "pretrain-gen"))
        if self.name == "decode":
            short = {**cfg, "train.steps": 2, "train.warmup_steps": 1}
            job.append(cli_args(short, "train", "--regime", "lora", "--out", root / "train"))
        return job

    # one timed call: (job, operations, output directory of the resolved config)
    def job(self, setup_root: Path, call_dir: Path, seed: int) -> tuple[list[list[str]], int, Path]:
        cfg = self.base(setup_root, seed)
        if self.name == "pretrain":
            out = call_dir / "pretrain"
            return [cli_args({**cfg, "paths.pretrain": str(out)}, "pretrain-gen")], cfg["train.pretrain_steps"], out
        if self.name == "joint":
            out = call_dir / "train"
            return [cli_args(cfg, "train", "--regime", "lora", "--out", out)], cfg["train.steps"], out
        if self.name == "decode":
            out = call_dir / "eval"
            job = [cli_args(cfg, "eval", "--ckpt", setup_root / "train", "--out", out)]
            return job, cfg["dataset.n_subjects"] * cfg["dataset.n_test_unique"], out
        cfg = {**cfg, "paths.out_root": str(call_dir), "paths.data": str(call_dir / "dataset")}
        plan = dataset_plan(cfg)
        job = [cli_args(cfg, "gen-data"), cli_args(cfg, "preprocess")]
        return job, plan["n_subjects"] * plan["runs_per_subject"], call_dir / "dataset"

    def check(self, setup_root: Path, call_dir: Path, seed: int, program) -> str | None:
        cfg = self.base(setup_root, seed)
        if self.name == "pretrain":
            return checks.check_training(call_dir / "pretrain", cfg["train.pretrain_steps"], program.load_train_state)
        if self.name == "joint":
            return checks.check_training(call_dir / "train", cfg["train.steps"], program.load_train_state)
        if self.name == "decode":
            subjects = program.load_manifest(setup_root / "dataset").subject_ids
            checks.check_report(call_dir / "eval", subjects, cfg["dataset.n_test_unique"])
            return None
        checks.check_dataset(call_dir / "dataset", dataset_plan(cfg), program.load_manifest, program.read_tensor)
        return None


WORKLOADS = {
    "pretrain": Workload("pretrain", "step", "samples_per_s", "samples/s", DESK, items_per_op=DESK["train.batch_size"]),
    "joint": Workload("joint", "step", "samples_per_s", "samples/s", DESK, items_per_op=DESK["train.batch_size"]),
    "decode": Workload("decode", "trial", "trials_per_s", "trials/s", {**DESK, **DECODE_DATA}),
    "datagen": Workload("datagen", "run", "runs_per_s", "runs/s", DESK),
}


# ---------------------------------------------------------------------------
# machine and provenance


def blas_threads() -> int:
    """Thread count of the OpenBLAS bundled with numpy wheels; 0 when unknown."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def gemm_gflops(repeats: int = 7) -> float:
    """One float32 matmul at the 32x32 conv GEMM shape, (32*32*32, 288) x (288, 32)."""
    import numpy as np

    g = np.random.default_rng(0)
    a = g.standard_normal((32 * 32 * 32, 288), dtype=np.float32)
    b = g.standard_normal((288, 32), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1] / stats.median(times) / 1e9


def code_version(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def config_digest(resolved: Path) -> str:
    """sha256 of the program's resolved config, without paths and run block."""
    doc = json.loads(resolved.read_text())
    doc.pop("run", None)
    doc.pop("paths", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def provenance(root: Path, workload: Workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "code": code_version(root),
        "src_sha256": src_digest(root / "src"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# running


@dataclass
class Call:
    traced: bool
    ops: int
    wall_s: float = 0.0
    startup_s: float = 0.0
    peak_rss_mb: float = 0.0
    ok: bool = False
    error: str = ""
    loss_rows: str | None = None
    trace: dict | None = None


def run_child(call_dir: Path, job: list[list[str]], traced: bool, src: Path, spans: Path | None, timeout: float) -> dict:
    call_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "src": str(src),
        "job": job,
        "trace": traced,
        "workers": WORKERS,
        "result": str(call_dir / "result.json"),
        "spans": str(spans) if spans else None,
    }
    spec_path = call_dir / "spec.json"
    env = {k: v for k, v in os.environ.items() if k != "BOLD2IMG_OUT"}
    with open(call_dir / "log.txt", "w") as log:
        spec["spawn_t"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
    result_path = call_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited with {proc.returncode}: {log_tail(call_dir)}"}
    return json.loads(result_path.read_text())


def log_tail(call_dir: Path) -> str:
    return (call_dir / "log.txt").read_text()[-400:]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Set up, run the timed calls, check them. Returns (result, report info)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    src = root / "src"
    sys.path.insert(0, str(src))
    from bold2img import trainer
    from bold2img.substrate import read_tensor
    from bold2img.synthcortex import load_manifest

    program = SimpleNamespace(
        load_train_state=trainer.load_train_state, load_manifest=load_manifest, read_tensor=read_tensor
    )

    os.environ.pop("BOLD2IMG_OUT", None)
    record = provenance(root, workload, seed)
    machine = {"cores": record["cores"], "blas_threads": record["blas_threads"]}
    if trace:
        machine["gemm_gflops"] = gemm_gflops()

    work = root / ".perfbench" / "work" / f"{workload.name}-s{seed}-{os.getpid()}"
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # set-up, repeated in fresh processes; the first copy feeds the timed calls
        setup_times = []
        for rep in range(SETUP_REPEATS):
            rep_root = work / f"setup{rep}"
            rep_root.mkdir()
            job = workload.setup_job(rep_root, seed)
            if not job:
                setup_times.append(0.0)
                continue
            proc_dir = work / f"setup{rep}-proc"
            res = run_child(proc_dir, job, False, src, None, max(1.0, deadline - time.monotonic()))
            if "error" in res or any(res["codes"]):
                raise RuntimeError(f"set-up failed: {res.get('error') or log_tail(proc_dir)}")
            setup_times.append(res["wall_s"])
            if rep:
                shutil.rmtree(rep_root)
        setup_root = work / "setup0"

        calls: list[Call] = []
        min_calls = 5 if trace else 2
        spans_path = results_dir / f"{workload.name}.spans.jsonl"
        measure_start = time.monotonic()
        while True:
            durations = [c.wall_s + c.startup_s for c in calls]
            if calls:
                elapsed = time.monotonic() - measure_start
                next_s = stats.median(durations)
                fits = elapsed + next_s <= seconds
                if len(calls) >= min_calls and not fits:
                    break
                if time.monotonic() + 1.5 * next_s > deadline:
                    break
            traced = trace and len(calls) % 2 == 0
            call_dir = work / f"call{len(calls)}"
            job, ops, resolved_dir = workload.job(setup_root, call_dir, seed)
            call = Call(traced, ops)
            timeout = max(1.0, deadline - time.monotonic())
            res = run_child(call_dir, job, traced, src, spans_path if traced else None, timeout)
            if "error" in res:
                call.error = res["error"]
            else:
                call.wall_s, call.startup_s, call.peak_rss_mb = res["wall_s"], res["startup_s"], res["peak_rss_mb"]
                call.trace = res.get("trace")
                if any(res["codes"]):
                    call.error = f"exit codes {res['codes']}: {log_tail(call_dir)}"
                else:
                    try:
                        call.loss_rows = workload.check(setup_root, call_dir, seed, program)
                        call.ok = True
                    except checks.CheckFailed as e:
                        call.error = str(e)
                reference = next((c.loss_rows for c in calls if c.ok), None)
                if call.ok and reference is not None and call.loss_rows != reference:
                    call.ok, call.error = False, "loss rows differ from an earlier call of this run"
                if "config_sha256" not in record and (resolved_dir / "resolved_config.json").exists():
                    record["config_sha256"] = config_digest(resolved_dir / "resolved_config.json")
            calls.append(call)
            if call.ok:
                shutil.rmtree(call_dir)
            if not call.ok and not call.wall_s:
                break  # the child itself broke; further calls would too
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, info = summarize_run(workload, trace, calls, setup_times, machine, record)
    (results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result, info


def summarize_run(workload, trace, calls, setup_times, machine, record) -> tuple[dict, dict]:
    attempted = sum(c.ops for c in calls)
    failed = sum(c.ops for c in calls if not c.ok)
    plain = [c for c in calls if not c.traced]
    good = [c for c in plain if c.ok] or plain
    rates = [c.ops * workload.items_per_op / c.wall_s for c in good if c.wall_s]
    e2e = {
        "throughput": (stats.median(rates), "items/s"),
        "setup_s": (stats.median(setup_times) + stats.median([c.startup_s for c in good]), "s"),
        "peak_rss_mb": (stats.median([c.peak_rss_mb for c in good]), "MB"),
    }
    named = {
        workload.rate_name: (e2e["throughput"][0], workload.rate_unit),
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
    }
    rows = next((c.loss_rows for c in calls if c.ok and c.loss_rows), None)
    if rows:
        named["loss_final"] = (checks.loss_final(rows, LOSS_WINDOW), "-")
    metrics = per_layer(calls, machine) if trace else e2e
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(
        {
            "trace": trace,
            "operation": workload.unit,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "setup_repeats_s": setup_times,
            "calls": [
                {k: getattr(c, k) for k in ("traced", "ops", "wall_s", "startup_s", "peak_rss_mb", "ok", "error")}
                for c in calls
            ],
            "metrics": reported,
        }
    )
    result = {
        "correct": failed == 0 and bool(calls),
        "attempted": max(attempted, 1),
        "failed": failed if calls else max(attempted, 1),
        "metrics": reported,
    }
    return result, {"named": named, "record": record, "calls": calls}


def per_layer(calls: list[Call], machine: dict) -> dict:
    traced = [c for c in calls if c.traced and c.trace]
    untraced = [c for c in calls if not c.traced and c.wall_s]
    n_ops = sum(c.ops for c in traced) or 1
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    steps: list[float] = []
    busy = window = 0.0
    for c in traced:
        for k, v in c.trace["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in c.trace["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
        steps += c.trace["step_s"]
        pool = c.trace["pool"]
        busy += pool["busy_s"]
        window += pool["window_s"] * pool["workers"]

    def ms(name):
        return (1000.0 * self_s.get(name, 0.0) / n_ops, "ms")

    def per_op(name, scale=1.0, unit="count"):
        return (counters.get(name, 0.0) * scale / n_ops, unit)

    out = {}
    conv_s = 0.0
    for kind in OP_KINDS:
        for phase in ("fwd", "bwd"):
            out[f"substrate.{kind}.{phase}_ms"] = ms(f"substrate.{kind}.{phase}")
            if kind.startswith("conv2d"):
                conv_s += self_s.get(f"substrate.{kind}.{phase}", 0.0)
    flop = counters.get("substrate.conv2d.flop", 0.0)
    out["substrate.conv2d.gflop"] = per_op("substrate.conv2d.flop", 1e-9, "GFLOP")
    out["substrate.conv2d.wgrad_gflop"] = per_op("substrate.conv2d.wgrad_flop", 1e-9, "GFLOP")
    out["substrate.conv2d.gbyte"] = per_op("substrate.conv2d.bytes", 1e-9, "GB")
    out["substrate.conv2d.gflops_achieved"] = (flop / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s")
    out["substrate.op_calls"] = per_op("substrate.op_calls")
    out["substrate.graph_nodes"] = per_op("substrate.graph_nodes")
    out["substrate.backward_ms"] = ms("substrate.backward")
    out["substrate.adamw_ms"] = ms("substrate.adamw")
    out["substrate.adamw_params"] = per_op("substrate.adamw_params")
    out["substrate.checkpoint.save_ms"] = ms("substrate.checkpoint.save")
    out["substrate.checkpoint.load_ms"] = ms("substrate.checkpoint.load")
    out["substrate.checkpoint.mb"] = per_op("substrate.checkpoint.bytes", 1e-6, "MB")
    out["brainmod.fwd_ms"] = ms("brainmod.fwd")
    out["brainmod.calls"] = per_op("brainmod.calls")
    out["diffgen.unet_fwd_ms"] = ms("diffgen.unet_fwd")
    out["diffgen.unet_calls"] = per_op("diffgen.unet_calls")
    out["diffgen.ddim_step_ms"] = ms("diffgen.ddim")
    pct, tail_s, n_steps = stats.tail(steps)
    out["trainer.step_ms_p50"] = (1000.0 * stats.median(steps), "ms")
    out["trainer.step_ms_tail"] = (1000.0 * tail_s, "ms")
    out["trainer.step_tail_pct"] = (pct, "%")
    out["trainer.step_samples"] = (float(n_steps), "count")
    out["trainer.batch_ms"] = ms("trainer.step")
    out["trainer.setup_ms"] = ms("trainer.run")
    out["prep.build_ms"] = ms("prep.build")
    out["prep.extract_ms"] = ms("prep.extract")
    indexed = counters.get("prep.runs_indexed", 0.0)
    out["prep.cache_reuse"] = (counters.get("prep.runs_reused", 0.0) / indexed if indexed else 0.0, "ratio")
    out["synthcortex.render_ms"] = ms("synthcortex.render")
    out["synthcortex.simulate_ms"] = ms("synthcortex.simulate")
    out["synthcortex.write_ms"] = ms("synthcortex.write")
    out["synthcortex.write_mb"] = per_op("synthcortex.write_bytes", 1e-6, "MB")
    out["synthcortex.pool_busy_frac"] = (busy / window if window else 0.0, "ratio")
    out["evalkit.score_ms"] = ms("evalkit.score")
    out["evalkit.infer_ms"] = ms("evalkit.infer")
    t_wall = stats.median([c.wall_s for c in traced])
    u_wall = stats.median([c.wall_s for c in untraced])
    out["trace.overhead_frac"] = (t_wall / u_wall - 1.0 if u_wall else 0.0, "ratio")
    out["machine.cores"] = (float(machine["cores"]), "count")
    out["machine.blas_threads"] = (float(machine["blas_threads"]), "count")
    out["machine.gemm_gflops"] = (machine.get("gemm_gflops", 0.0), "GFLOP/s")
    return out


def report(workload: Workload, seed: int, trace: bool, result: dict, info: dict):
    rec = info["record"]
    print(
        f"perfbench {workload.name} seed={seed} trace={int(trace)} code={rec['code']} "
        f"src={rec['src_sha256'][:12]} config={rec.get('config_sha256', '?')[:12]} numpy={rec['numpy']} "
        f"blas={rec['blas']} blas_threads={rec['blas_threads']} cores={rec['cores']}"
    )
    print(f"  why: {workload.why}")
    for i, c in enumerate(info["calls"]):
        status = "ok" if c.ok else f"FAILED: {c.error}"
        kind = "traced" if c.traced else "untraced"
        print(
            f"  call {i} ({kind}): {c.ops} {workload.unit}s, {c.wall_s:.3f} s wall, "
            f"{c.startup_s:.3f} s start-up, {c.peak_rss_mb:.1f} MB peak, {status}"
        )
    for name, (value, unit) in info["named"].items():
        print(f"  {name:<16} {value:.6g} {unit}")
    if trace:
        for name, m in result["metrics"].items():
            note = " (computed from shapes)" if name in COMPUTED else ""
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bold2img" / "cli.py").is_file():
        print(f"perfbench: no src/bold2img under {root}; run from a source checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, info = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
        report(WORKLOADS[name], args.seed, bool(args.trace), result, info)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
