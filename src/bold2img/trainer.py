"""Training orchestration: one step loop drives generator pretraining and the
joint stage (one subject, several subjects, or adaptation to a new subject);
each phase supplies only its batch of images and conditioning tokens, its
timestep sampling, its LR schedule and the learning-rate factor of each entry
it trains. Also the finetuning regimes and inference.

One parameter store carries everything (unet/*, brain/*, lora/*, cond/*);
a regime is just a set of trainable names in that store. All per-step
randomness is keyed by the absolute step index, so resuming from a checkpoint
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .brainmod import BrainModuleConfig, add_subject_layers, brain_forward_batch, init_brain_module
from .diffgen import (
    NonFiniteActivation,
    UNetConfig,
    cfg_predictor,
    create_lora_adapters,
    ddim_sample,
    diffusion_loss,
    diffusion_to_image,
    eps_from_v,
    image_to_diffusion,
    image_tokens,
    init_image_encoder,
    init_null_tokens,
    init_unet,
    make_schedule,
    unet_cross_attn_param_names,
    unet_forward,
    unet_linear_param_names,
)
from .lanes import LaneError, Lanes, fill_rows, lane_count, shared_zeros
from .prep import DEFAULT_WINDOW_D, DEFAULT_WINDOW_T, Epoch, PreprocCache, SplitSpec, extract_epochs, window_length
from .substrate import LrSchedule, OptimizerState, ParamStore, RngKey, Tensor, adamw_step, lr_at, no_grad, ops
from .substrate.checkpoint import load_checkpoint, read_json_object, save_checkpoint
from .synthcortex.dataset import DatasetManifest

REGIMES = ("all", "linear", "cross_attn", "none", "lora")
# new-subject adaptation: the shared trunk, adapters and null embedding train at this fraction of max_lr
ADAPT_TRUNK_LR_SCALE = 0.1
# trials decoded together by `infer`, fixed so that its output bits do not depend on its lanes
INFER_BATCH = 8
# rows of a training step computed together, fixed so that its bits do not depend on its lanes
TRAIN_SHARD_ROWS = 16
UNCOND_STEPS, UNCOND_BATCH = 20, 32  # DDIM steps and batch of `sample_unconditional`


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    steps: int = 10_000
    pretrain_steps: int = 5_000
    batch_size: int = 32
    max_lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    warmup_steps: int = 500
    cond_dropout: float = 0.1
    regime: str = "lora"
    window_t: float = DEFAULT_WINDOW_T
    window_d: float = DEFAULT_WINDOW_D
    delta: float = 0.0
    offset_lambda: float = 0.1
    shuffle_conditioning: bool = False
    seed: int = 0
    brain: BrainModuleConfig = field(default_factory=BrainModuleConfig)
    unet: UNetConfig = field(default_factory=UNetConfig)

    def validate(self):
        for key in ("batch_size", "max_lr"):
            if getattr(self, key) <= 0:
                raise ValueError(f"train.{key} must be positive, got {getattr(self, key)}")
        for key in ("pretrain_steps", "weight_decay", "offset_lambda"):
            if getattr(self, key) < 0:
                raise ValueError(f"train.{key} must be >= 0, got {getattr(self, key)}")
        for key in ("beta1", "beta2", "cond_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"train.{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0 <= self.warmup_steps < self.steps:
            raise ValueError(f"train.warmup_steps must be in [0, train.steps ({self.steps})), got {self.warmup_steps}")
        if self.regime not in REGIMES:
            raise ValueError(f"train.regime must be one of {REGIMES}, got {self.regime!r}")
        self.brain.validate()


def config_to_json(config) -> dict:
    """A config dataclass as nested JSON-ready dicts (tuples become lists)."""
    return json.loads(json.dumps(asdict(config)))


def config_from_json(cls, d: dict, where: str = ""):
    """The inverse of `config_to_json`: fields whose default is a dataclass are
    rebuilt recursively and those whose default is a tuple become tuples again.
    A missing field keeps its default. A key that is not a field raises a
    ValueError naming its dotted path after `where`."""
    default, kw = cls(), dict(d)
    names = {f.name for f in fields(cls)}
    for key in d:
        path = f"{where}.{key}" if where else key
        if key not in names:
            raise ValueError(f"{path}: not a field of {cls.__name__}")
        dv = getattr(default, key)
        if is_dataclass(dv):
            kw[key] = config_from_json(type(dv), kw[key], path)
        elif isinstance(dv, tuple):
            kw[key] = tuple(kw[key])
    return cls(**kw)


# ---------------------------------------------------------------------------
# regimes


def regime_trainable_names(store: ParamStore, regime: str) -> set[str]:
    names = {n for n in store.names() if n.startswith("brain/")} | {"cond/null_tokens"}
    if regime == "all":
        names |= {n for n in store.names() if n.startswith("unet/")}
    elif regime == "linear":
        names |= set(unet_linear_param_names(store))
    elif regime == "cross_attn":
        names |= set(unet_cross_attn_param_names(store))
    elif regime == "lora":
        lora = {n for n in store.names() if n.startswith("lora/")}
        if not lora:
            raise ValueError("regime 'lora' requires adapters attached to the store")
        names |= lora
    elif regime != "none":
        raise ValueError(f"unknown regime {regime!r}")
    return names


# ---------------------------------------------------------------------------
# training data


@dataclass
class TrainingSet:
    """Per-subject windows, views into the cached runs, and one image per stimulus."""

    subjects: list[str]
    windows: dict[str, list[np.ndarray]]  # sid -> N (C, T) views
    images: np.ndarray  # (S, R, R, 3), one row per stimulus used
    image_row: dict[str, np.ndarray]  # sid -> (N,) row of `images` per window
    flat_index: list[tuple[str, int]]  # global row -> (sid, local row)

    @property
    def n_total(self) -> int:
        return len(self.flat_index)

    def gather(self, sid: str, rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The stacked (B, C, T) windows and (B, R, R, 3) images of `rows`."""
        return np.stack([self.windows[sid][i] for i in rows]), self.images[self.image_row[sid][rows]]


def assemble_training_set(
    manifest: DatasetManifest,
    cache: PreprocCache,
    refs: dict[str, list[tuple[int, int]]],
    config: TrainConfig,
    shuffle_key: RngKey | None = None,
) -> TrainingSet:
    if config.shuffle_conditioning and shuffle_key is None:
        raise ValueError("shuffle_conditioning needs a key")
    epochs, _ = extract_epochs(cache, refs, config.window_t, config.window_d, config.delta)
    stims = sorted({e.stimulus_id for e in epochs})
    row_of = {s: i for i, s in enumerate(stims)}
    windows, image_row = {}, {}
    for e in epochs:
        windows.setdefault(e.subject_id, []).append(e.X)
        image_row.setdefault(e.subject_id, []).append(row_of[e.stimulus_id])
    subjects = sorted(windows)
    for sid in subjects:
        image_row[sid] = np.asarray(image_row[sid])
        if config.shuffle_conditioning:
            image_row[sid] = image_row[sid][shuffle_key.child("shuffle", sid).permutation(len(image_row[sid]))]
    flat = [(sid, i) for sid in subjects for i in range(len(windows[sid]))]
    images = np.stack([manifest.load_image(s) for s in stims])
    return TrainingSet(subjects, windows, images, image_row, flat)


# ---------------------------------------------------------------------------
# checkpoint container with optimizer state


def save_train_state(out_dir, store: ParamStore, opt: OptimizerState, config: TrainConfig, extra: dict):
    full = ParamStore()  # the same arrays, plus the AdamW moments
    for name in store.names():
        full.add(name, store[name].data)
    for name in sorted(opt.m):
        full.add(f"optim/m/{name}", opt.m[name])
        full.add(f"optim/v/{name}", opt.v[name])
    save_checkpoint(out_dir, full, {"step": opt.step, "train_config": config_to_json(config), **extra})


def load_train_state(ckpt_dir) -> tuple[ParamStore, OptimizerState, TrainConfig, dict]:
    full, extra = load_checkpoint(ckpt_dir)
    store = ParamStore()
    opt = OptimizerState(step=extra.get("step", 0))
    for name in full.names():
        if name.startswith("optim/m/"):
            opt.m[name[len("optim/m/") :]] = full[name].data
        elif name.startswith("optim/v/"):
            opt.v[name[len("optim/v/") :]] = full[name].data
        else:
            store.add(name, full[name].data)
    return store, opt, recorded_train_config(ckpt_dir, extra), extra


def recorded_train_config(ckpt_dir, extra: dict | None = None) -> TrainConfig:
    """The `TrainConfig` a checkpoint records, from the manifest's `extra` when
    the caller has loaded it, else read from the manifest alone."""
    manifest = Path(ckpt_dir) / "manifest.json"
    if extra is None:
        extra = read_json_object(manifest)["extra"]
    return config_from_json(TrainConfig, extra["train_config"], f"{manifest}: train_config")


# ---------------------------------------------------------------------------
# loops


def _loss_csv(out_dir: Path, rows: list[tuple], resume: bool):
    path = out_dir / "loss.csv"
    mode = "a" if resume and path.exists() else "w"
    with open(path, mode) as f:
        if mode == "w":
            f.write("step,loss,lr,cond_dropped\n")
        for r in rows:
            f.write(f"{r[0]},{r[1]:.6f},{r[2]:.8f},{r[3]}\n")


class _DivergenceGuard:
    threshold_steps = 500

    def __init__(self):
        self.initial: float | None = None
        self.bad = 0

    def check(self, step: int, loss: float):
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss {loss} at step {step}")
        if self.initial is None:
            self.initial = loss
        self.bad = self.bad + 1 if loss > 10.0 * self.initial else 0
        if self.bad >= self.threshold_steps:
            raise TrainingDiverged(
                f"loss {loss:.4f} above 10x initial ({self.initial:.4f}) for {self.bad} consecutive steps"
            )


def _train_loop(
    batch,
    timestep_sampling: str,
    lr_sched: LrSchedule | None,
    store: ParamStore,
    lr_scale: dict[str, float],
    opt: OptimizerState,
    config: TrainConfig,
    root: RngKey,
    out_dir,
    extra: dict,
    stop_after: int | None,
    workers: int,
) -> Path:
    """The step loop of every training phase, and its one objective.

    `lr_scale` maps each entry the phase trains to its learning-rate factor;
    it is the one statement of what trains. Before the first step every entry
    it names is set to train and every other entry is frozen, bit for bit.
    `batch(skey) -> (x0, tokens)` draws one step's diffusion-space images
    and a function `tokens(lo, hi)` that builds the conditioning tokens of
    rows lo:hi from the step key. The loop owns the rest: each row's tokens
    drop to the learned null embedding with probability cond_dropout, so
    classifier-free guidance works at inference; the loss regresses the
    velocity at timesteps drawn by `timestep_sampling`; then the gradients of
    the trained entries, the LR schedule, AdamW at lr * lr_scale[name], the
    divergence guard, the loss rows and the final save. Without a schedule
    no step runs.

    Each step's batch splits into fixed shards of TRAIN_SHARD_ROWS rows.
    Every random draw is made for the whole batch and each shard takes its
    rows; a shard's loss is its rows' squared error over the whole batch's
    element count, so the shards' losses and gradients, summed in shard
    order, are the batch's up to float32 summation order, and one AdamW step
    follows. Shard s runs on lane s mod L, L = min(`workers`, shards)
    (`lanes.Lanes`: forked once per call, each lane on max(1, threads // L)
    BLAS threads, one on two cores): the trained entries move into a shared mapping that the caller's AdamW updates in
    place, and each lane hands its gradients back through another. The
    shards do not depend on `workers`, so neither do the bits, and a batch
    of one shard runs as it did unsharded. A failed lane raises a
    RuntimeError naming the step and its rows (a NonFiniteActivation stays
    one); a failure here kills the lanes.
    `stop_after` interrupts the run early (the schedule keeps its length);
    resuming from the saved state (`opt.step > 0`) then reproduces the
    uninterrupted run and appends to its loss rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store.set_trainable_by(lr_scale.__contains__)
    resumed = opt.step > 0
    total = 0 if lr_sched is None else lr_sched.total_steps
    last = total if stop_after is None else min(total, opt.step + stop_after)
    sched = make_schedule(config.unet.t_max)
    b, names = config.batch_size, sorted(lr_scale)
    shards = [(lo, min(lo + TRAIN_SHARD_ROWS, b)) for lo in range(0, b, TRAIN_SHARD_ROWS)]
    n_lanes = lane_count(min(workers, len(shards))) if last > opt.step else 1

    def draw(step: int):
        """The step key, images, token builder and dropped rows of the whole batch."""
        skey = root.child("step", step)
        x0, tokens = batch(skey)
        return skey, x0, tokens, skey.child("cdrop").generator().random(b) < config.cond_dropout

    def shard(step: int, drawn, lo: int, hi: int) -> tuple[float, dict[str, np.ndarray]]:
        """The loss and the trained entries' gradients of rows lo:hi."""
        skey, x0, tokens, drop = drawn
        cond = tokens(lo, hi)
        if drop[lo:hi].any():
            cond = ops.where(drop[lo:hi, None, None], store["cond/null_tokens"], cond)
        try:
            loss = diffusion_loss(
                x0, cond, store, sched, config.unet, skey.child("loss"), timestep_sampling, config.offset_lambda,
                rows=(lo, hi),
            )
        except NonFiniteActivation as e:
            raise NonFiniteActivation(f"step {step}: {e}") from e
        loss.backward()
        grads = {}
        for n in names:
            grads[n] = store[n].grad if store[n].grad is not None else np.zeros_like(store[n].data)
            store[n].grad = None
        return loss.item(), grads

    handed, losses = {}, None  # what the forked lanes hand back: per shard, gradients and loss
    if n_lanes > 1:
        specs = [(store[n].shape, store[n].dtype) for n in names]
        for n, shared in zip(names, shared_zeros(specs)):
            shared[...] = store[n].data
            store[n].data = shared
        handed = {s: dict(zip(names, shared_zeros(specs))) for s in range(len(shards)) if s % n_lanes}
        losses = shared_zeros([((len(shards),), np.float64)])[0]

    def serve(lane: int, step: int, where: list[str]):
        drawn = draw(step)
        for s in range(lane, len(shards), n_lanes):
            where[0] = f"step {step}, rows {shards[s][0]}:{shards[s][1]}"
            losses[s], grads = shard(step, drawn, *shards[s])
            for n in names:
                handed[s][n][...] = grads[n]

    guard = _DivergenceGuard()
    rows = []
    with Lanes(n_lanes, serve) as lanes:
        for step in range(opt.step, last):
            store.zero_grads()
            lanes.post(step)
            drawn = draw(step)
            done = {s: shard(step, drawn, *shards[s]) for s in range(0, len(shards), n_lanes)}
            try:
                lanes.collect()
            except LaneError as e:
                if NonFiniteActivation.__name__ in e.kinds:
                    raise NonFiniteActivation(str(e)) from e
                raise
            loss, grads = done[0]
            for s in range(1, len(shards)):
                shard_loss, shard_grads = done[s] if s in done else (float(losses[s]), handed[s])
                loss += shard_loss
                grads = {n: grads[n] + shard_grads[n] for n in names}
            lr = lr_at(step, lr_sched)
            adamw_step(store, grads, opt, lr, config.weight_decay, config.beta1, config.beta2, lr_scale=lr_scale)
            guard.check(step, loss)
            rows.append((step, loss, lr, int(drawn[3].sum())))
    _loss_csv(out_dir, rows, resumed)
    save_train_state(out_dir, store, opt, config, extra)
    return out_dir


def pretrain_generator(
    manifest: DatasetManifest,
    config: TrainConfig,
    out_dir,
    resume_from=None,
    stop_after: int | None = None,
    workers: int = 1,
) -> Path:
    """Generator training on the train-split stimulus images, with uniformly
    sampled timesteps, on `workers` lanes.

    The tokens come from a frozen image encoder, so the generator learns to
    read token variation; the step loop drops them to the null embedding.
    """
    config.validate()
    root = RngKey(config.seed, ("pretrain",))
    if resume_from is not None:
        store, opt, _, _ = load_train_state(resume_from)
    else:
        store = init_unet(config.unet, root.child("init", "unet"))
        init_null_tokens(config.unet, root.child("init", "null"), store)
        init_image_encoder(config.unet, root.child("init", "imgenc"), store)
        opt = OptimizerState()
    lr_scale = dict.fromkeys((n for n in store.names() if n.startswith("unet/") or n == "cond/null_tokens"), 1.0)

    raw_imgs = np.stack([manifest.load_image(s) for s in manifest.train_stimuli()])
    train_imgs = image_to_diffusion(raw_imgs)

    def batch(skey: RngKey):
        idx = skey.child("batch").generator().integers(0, len(train_imgs), config.batch_size)
        return train_imgs[idx], lambda lo, hi: Tensor(image_tokens(raw_imgs[idx[lo:hi]], config.unet, store))

    total = config.pretrain_steps
    lr_sched = LrSchedule(config.max_lr, min(config.warmup_steps, total - 1), total) if total else None
    return _train_loop(batch, "uniform", lr_sched, store, lr_scale, opt, config, root, out_dir, {"phase": "pretrain"},
                       stop_after, workers)


def _train_joint(
    manifest: DatasetManifest,
    split: SplitSpec,
    subjects: list[str],
    store: ParamStore,
    lr_scale: dict[str, float],
    opt: OptimizerState,
    config: TrainConfig,
    out_dir,
    stop_after: int | None,
    workers: int,
) -> Path:
    """The joint stage on `split.train_refs` of `subjects`, training the
    entries of `lr_scale` at their learning-rate factors, on `workers` lanes."""
    root = RngKey(config.seed, ("joint",))
    cache = PreprocCache(manifest, workers=workers).build()
    refs = {sid: split.train_refs[sid] for sid in subjects}
    data = assemble_training_set(manifest, cache, refs, config, shuffle_key=root.child("labels"))

    def batch(skey: RngKey):
        pick = skey.child("batch").generator().integers(0, data.n_total, config.batch_size)
        by_sid: dict[str, list[int]] = {}
        for sid, row in (data.flat_index[i] for i in pick):
            by_sid.setdefault(sid, []).append(row)
        groups = [(sid, *data.gather(sid, by_sid[sid])) for sid in sorted(by_sid)]  # the batch's rows, by subject

        def tokens(lo: int, hi: int) -> Tensor:
            parts, start = [], 0
            for sid, x, _ in groups:  # each subject's dropout is drawn for all of its rows
                a, z = max(lo, start), min(hi, start + len(x))
                if a < z:
                    key = skey.child("drop", sid)
                    parts.append(brain_forward_batch(x, store, config.brain, sid, True, key, (a - start, z - start)))
                start += len(x)
            return parts[0] if len(parts) == 1 else ops.concat(parts, axis=0)

        return image_to_diffusion(np.concatenate([images for _, _, images in groups], axis=0)), tokens

    lr_sched = LrSchedule(config.max_lr, config.warmup_steps, config.steps)
    extra = {"phase": "joint", "subjects": subjects, "split": split.kind}
    return _train_loop(batch, "bicubic", lr_sched, store, lr_scale, opt, config, root, out_dir, extra, stop_after,
                       workers)


def train_single_stage(
    manifest: DatasetManifest,
    split: SplitSpec,
    pretrained_ckpt,
    config: TrainConfig,
    out_dir,
    subjects: list[str] | None = None,
    resume_from=None,
    stop_after: int | None = None,
    workers: int = 1,
) -> Path:
    """Joint training of the brain module and conditioned generator, on
    `workers` lanes.

    Every repetition is its own sample (no averaging). Several subjects
    (default: all of the manifest) share one trunk, adapters and null
    embedding; each has its own input and timestep layers. Timesteps are
    drawn from the bicubic schedule.
    """
    config.validate()
    subjects = sorted(subjects if subjects is not None else manifest.subject_ids)
    if resume_from is not None:
        store, opt, _, _ = load_train_state(resume_from)
    else:
        store, _, _, _ = load_train_state(pretrained_ckpt)
        opt = OptimizerState()
        root = RngKey(config.seed, ("joint",))
        voxels = {sid: manifest.subject_voxels[sid] for sid in subjects}
        n_samples = window_length(config.window_d, manifest.tr)
        init_brain_module(config.brain, voxels, n_samples, root.child("init", "brain"), store)
        if config.regime == "lora":
            create_lora_adapters(config.unet, root.child("init", "lora"), store)
    lr_scale = dict.fromkeys(regime_trainable_names(store, config.regime), 1.0)
    return _train_joint(manifest, split, subjects, store, lr_scale, opt, config, out_dir, stop_after, workers)


def adapt_new_subject(
    multi_ckpt,
    manifest: DatasetManifest,
    split: SplitSpec,
    new_subject: str,
    sessions_used: int,
    config: TrainConfig,
    out_dir,
    workers: int = 1,
) -> Path:
    """Adapt a pretrained multi-subject model to an unseen subject, on
    `workers` lanes.

    Fresh subject/timestep layers train at full rate; the shared trunk,
    adapters and null embedding finetune at max_lr * ADAPT_TRUNK_LR_SCALE.
    Only the first `sessions_used` runs of the new subject are used. The
    checkpoint's adapters, if any, run and train. That set is fixed, so the
    only regimes accepted are 'none' and 'lora' (which also requires adapters).
    """
    config.validate()
    if config.regime not in ("none", "lora"):
        raise ValueError(
            f"regime {config.regime!r} does not apply to adaptation, which honours only 'none' and 'lora'"
        )
    n_runs = len(manifest.runs[new_subject])
    if not 1 <= sessions_used <= n_runs:
        raise ValueError(f"sessions_used must be in [1, {n_runs}], got {sessions_used}")
    store, _, _, _ = load_train_state(multi_ckpt)
    if f"brain/subject/{new_subject}/w" in store:
        raise ValueError(f"{new_subject} already present in the pretrained checkpoint")
    if config.regime == "lora" and not any(n.startswith("lora/") for n in store.names()):
        raise ValueError("regime 'lora' requires adapters attached to the store")
    root = RngKey(config.seed, ("adapt", new_subject))
    add_subject_layers(store, config.brain, new_subject, manifest.subject_voxels[new_subject], root.child("fresh"))

    fresh_prefix = (f"brain/subject/{new_subject}/", f"brain/tstep/{new_subject}/")
    lr_scale = {}
    for n in store.names():
        if n.startswith(fresh_prefix):
            lr_scale[n] = 1.0
        elif n.startswith("brain/subject/") or n.startswith("brain/tstep/"):
            continue  # other subjects' layers stay frozen, bit for bit
        elif n.startswith("brain/") or n.startswith("lora/") or n == "cond/null_tokens":
            lr_scale[n] = ADAPT_TRUNK_LR_SCALE

    refs = [(r, e) for r, e in split.train_refs[new_subject] if r < sessions_used]
    split = replace(split, train_refs={new_subject: refs})
    return _train_joint(manifest, split, [new_subject], store, lr_scale, OptimizerState(), config, out_dir, None,
                        workers)


# ---------------------------------------------------------------------------
# inference


def make_noise_predictor(store: ParamStore, config: UNetConfig, sched):
    """Wrap the velocity-trained network as an eps-predictor."""

    def unet_call(x, t, tk):
        v = unet_forward(x, t, Tensor(tk), store, config).data
        # one output row block per token block, each for the same x and t
        k = v.shape[0] // x.shape[0]
        return eps_from_v(np.tile(x, (k, 1, 1, 1)), v, np.tile(t, k), sched)

    return unet_call


def sample_unconditional(ckpt_dir, n: int, key: RngKey) -> np.ndarray:
    """Images from the learned null embedding alone (generator quality checks)."""
    store, _, config, _ = load_train_state(ckpt_dir)
    sched = make_schedule(config.unet.t_max)
    null = store["cond/null_tokens"].data
    r = config.unet.resolution
    unet_call = make_noise_predictor(store, config.unet, sched)
    out = np.empty((n, r, r, 3), dtype=np.float32)
    with no_grad():
        for lo in range(0, n, UNCOND_BATCH):
            b = min(UNCOND_BATCH, n - lo)
            tokens = np.broadcast_to(null, (b,) + null.shape).copy()
            predict = cfg_predictor(unet_call, tokens, null, guidance=1.0)
            x = ddim_sample(predict, sched, key.child(lo, "init").normal((b, r, r, 3)), UNCOND_STEPS)
            out[lo : lo + b] = diffusion_to_image(x)
    return out


def infer(
    store: ParamStore,
    config: TrainConfig,
    epochs: list[Epoch],
    key: RngKey,
    steps: int,
    guidance: float,
    workers: int = 1,
) -> np.ndarray:
    """One image per epoch from a loaded model via guided DDIM; dropout inactive.

    The epochs are decoded in fixed batches of `INFER_BATCH`, batch i on lane
    i mod `workers` (`lanes.fill_rows`: forked processes with one BLAS thread
    each; one lane decodes here, unforked). The initial noise is keyed per
    epoch (subject, run, event, shift), so a trial starts from the same noise
    in any batch, and since the batches do not depend on `workers`, neither
    do the output bits. Decoding a different slice of the epochs can still
    change a trial in the last bits, because BLAS may round a GEMM
    differently depending on its row count. A failed lane raises a
    RuntimeError naming the trials (rows) of the batch it failed on.
    """
    sched = make_schedule(config.unet.t_max)
    r = config.unet.resolution
    null = store["cond/null_tokens"].data

    n_samples = store["brain/agg/w"].shape[0]
    for e in epochs:
        if e.n_samples != n_samples:
            raise ValueError(f"epoch {e.stimulus_id} has {e.n_samples} samples; checkpoint expects {n_samples}")

    unet_call = make_noise_predictor(store, config.unet, sched)

    def decode(lo: int, hi: int) -> np.ndarray:
        group = epochs[lo:hi]
        tokens = np.concatenate(
            [brain_forward_batch(e.X[None], store, config.brain, e.subject_id, training=False).data for e in group]
        )
        init = np.stack(
            [key.child("init", e.subject_id, e.run_id, e.event_index, e.delta).normal((r, r, 3)) for e in group]
        )
        predict = cfg_predictor(unet_call, tokens, null, guidance)
        return diffusion_to_image(ddim_sample(predict, sched, init, steps))

    n = len(epochs)
    batches = [(lo, min(lo + INFER_BATCH, n)) for lo in range(0, n, INFER_BATCH)]
    with no_grad():
        return fill_rows((n, r, r, 3), np.float32, batches, decode, workers)
