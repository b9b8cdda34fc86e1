"""Parametric scene stimuli and their exact rasterization.

Scenes hold 1-3 colored shapes over a fixed background color. Rendering is
palette-exact with no anti-aliasing: a pixel belongs to a shape iff its
center falls inside the shape, and the image is literally the palette row
indexed by the class mask, so the mask is the ground truth segmentation by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..substrate.rng import RngKey

KINDS = ("circle", "square", "triangle")
N_COLORS = 6  # foreground palette entries; row 0 is the background
MIN_PALETTE_DIST = 0.3  # least L2 distance between two palette rows

# Background + 6 well-separated foreground colors (pairwise L2 >= MIN_PALETTE_DIST).
DEFAULT_PALETTE = np.array(
    [
        [0.08, 0.08, 0.10],  # background
        [0.90, 0.12, 0.12],  # red
        [0.10, 0.78, 0.16],  # green
        [0.15, 0.25, 0.92],  # blue
        [0.95, 0.85, 0.10],  # yellow
        [0.85, 0.15, 0.80],  # magenta
        [0.10, 0.80, 0.85],  # cyan
    ],
    dtype=np.float32,
)


def validate_palette(palette: np.ndarray):
    if palette.shape != (N_COLORS + 1, 3):
        raise ValueError(f"palette must be {(N_COLORS + 1, 3)}, got {palette.shape}")
    for i in range(len(palette)):
        for j in range(i + 1, len(palette)):
            d = float(np.linalg.norm(palette[i] - palette[j]))
            if d < MIN_PALETTE_DIST:
                raise ValueError(f"palette rows {i} and {j} too close: L2 {d:.3f} < {MIN_PALETTE_DIST}")


@dataclass
class Shape:
    kind: str  # circle | square | triangle
    color: int  # foreground color index in [0, N_COLORS)
    cx: float
    cy: float
    size: float  # full extent (diameter / side / circumdiameter) in unit coords

    def to_json(self) -> dict:
        return {"kind": self.kind, "color": self.color, "cx": self.cx, "cy": self.cy, "size": self.size}

    @staticmethod
    def from_json(d: dict) -> "Shape":
        return Shape(d["kind"], d["color"], d["cx"], d["cy"], d["size"])


@dataclass
class StimulusScene:
    shapes: list[Shape]
    background: int = 0  # palette row of the background

    def validate(self):
        # Sampled scenes always hold 1-3 shapes; an empty scene is permitted
        # as a degenerate rendering input (constant background).
        if len(self.shapes) > 3:
            raise ValueError(f"scene must hold at most 3 shapes, got {len(self.shapes)}")
        for s in self.shapes:
            if s.kind not in KINDS:
                raise ValueError(f"unknown shape kind {s.kind!r}")
            if not 0 <= s.color < N_COLORS:
                raise ValueError(f"color index {s.color} out of range")
            if not (0.1 <= s.size <= 0.4):
                raise ValueError(f"size {s.size} outside [0.1, 0.4]")
            if s.color + 1 == self.background:
                raise ValueError("shape color equals background color")

    def to_json(self) -> dict:
        return {"background": self.background, "shapes": [s.to_json() for s in self.shapes]}

    @staticmethod
    def from_json(d: dict) -> "StimulusScene":
        return StimulusScene([Shape.from_json(s) for s in d["shapes"]], d["background"])


# Sampling ranges of the scene distribution.
SHAPE_COUNT_PROBS = (0.5, 0.3, 0.2)  # P(1), P(2), P(3) shapes
SIZE_RANGE = (0.16, 0.40)
CENTER_RANGE = (0.18, 0.82)


def sample_scene(key: RngKey) -> StimulusScene:
    g = key.generator()
    n = 1 + int(g.choice(3, p=np.asarray(SHAPE_COUNT_PROBS, dtype=np.float64)))
    shapes = []
    for _ in range(n):
        kind = KINDS[int(g.integers(0, len(KINDS)))]
        color = int(g.integers(0, N_COLORS))
        cx = float(g.uniform(*CENTER_RANGE))
        cy = float(g.uniform(*CENTER_RANGE))
        size = float(g.uniform(*SIZE_RANGE))
        shapes.append(Shape(kind, color, cx, cy, size))
    scene = StimulusScene(shapes)
    scene.validate()
    return scene


def _shape_hit(shape: Shape, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Boolean grid of pixel centers inside the shape (boundary inclusive)."""
    half = shape.size / 2.0
    if shape.kind == "circle":
        return (px - shape.cx) ** 2 + (py - shape.cy) ** 2 <= half * half
    if shape.kind == "square":
        return np.maximum(np.abs(px - shape.cx), np.abs(py - shape.cy)) <= half
    # Equilateral triangle, apex up (smaller y), circumradius = half.
    s32 = math.sqrt(3.0) / 2.0
    verts = [
        (shape.cx, shape.cy - half),
        (shape.cx + half * s32, shape.cy + half / 2.0),
        (shape.cx - half * s32, shape.cy + half / 2.0),
    ]
    area2 = (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1]) - (verts[1][1] - verts[0][1]) * (
        verts[2][0] - verts[0][0]
    )
    if area2 < 0:
        verts = [verts[0], verts[2], verts[1]]
    inside = np.ones_like(px, dtype=bool)
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        inside &= cross >= 0
    return inside


def render_mask(scene: StimulusScene, resolution: int = 32) -> np.ndarray:
    """Class-id mask: 0 = background, c+1 = foreground color c; later shapes occlude."""
    scene.validate()
    coords = (np.arange(resolution, dtype=np.float64) + 0.5) / resolution
    px, py = np.meshgrid(coords, coords)  # px varies along columns, py along rows
    mask = np.zeros((resolution, resolution), dtype=np.int32)
    for shape in scene.shapes:
        mask[_shape_hit(shape, px, py)] = shape.color + 1
    return mask


def render_scene(scene: StimulusScene, resolution: int = 32) -> np.ndarray:
    """RGB image (resolution, resolution, 3) in [0, 1], palette-exact."""
    return DEFAULT_PALETTE[render_mask(scene, resolution)]
