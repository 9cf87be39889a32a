"""Seeded kernel-family workloads for the randmap benchmark.

A workload is a kernel manifest plus one grid-density CSV per base point,
in the format `randmap represent` and `randmap verify` read. Everything is
generated from the workload seed alone: the same seed writes byte-identical
files. The verify seeds are the same in every run (see `verify_seed`).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from randmap.measures import GridDensity
from randmap.moser import MIN_DENSITY

# Base points are jittered within their slots; the densities' shape
# parameters only a little, around values fixed by the slot, so that every
# seed asks for about the same work and accuracy: the spread between runs
# then measures the program, not the draw.
AMP_JITTER = 0.01
CENTRE_JITTER = 0.01
BOX_FLOOR = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    space: str       # base space tag written to the manifest
    route: str       # represent/verify --route
    dim: int         # target dimension of every density
    n: int           # grid cells per axis
    k: int           # base points (one density each)
    n_samples: int   # verify --n
    # verify reports whose largest per-point W1 the w1_max metric averages:
    # many where Monte Carlo noise dominates W1, few where grid bias does
    w1_reports: int
    # a run is made of rounds of this many represent calls, then verify calls
    represent_per_round: int
    verify_per_round: int
    # commands whose timings are divided by the run's machine-speed factor:
    # those that are bytecode and small-array work, which the probe tracks
    # and which raw spread most from run to run (see README.md)
    speed_scaled: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # 1D Moser/RK4 route on small arrays, where per-call Python overhead in
    # interp_grid dominates; makes no Sinkhorn call.
    Workload("circle-moser", "circle", "continuous", 1, 64, 16, 10000, 20, 1, 2,
             ("represent", "verify")),
    # 2D Moser route whose verify is dominated by the dense N x n^2 Sinkhorn
    # W1 bound against scattered samples.
    Workload("torus-moser", "torus2", "continuous", 2, 32, 4, 1000, 2, 3, 1,
             ("represent",)),
    # 2D measurable route: grid-to-grid entropic Brenier maps and Sinkhorn W1
    # bounds; Moser is never called.
    Workload("box-brenier", "interval", "measurable", 2, 16, 3, 2000, 2, 1, 1, ()),
)}


def verify_seed(k: int) -> int:
    """Seed of the k-th consecutive verify call of a run, whatever the workload seed.

    A verify report's W1 on circle-moser is Monte Carlo noise of its draw, so
    draws that changed with the workload seed would make w1_max vary from
    seed to seed by more than a change to the program does. With the same
    draws in every run, w1_max moves only with the family's jitter and the
    program.
    """
    return k


def _jitter(rng: np.random.Generator, size) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size)


def _unit_mean(vals: np.ndarray) -> np.ndarray:
    return vals / vals.mean()


def _circle_family(w: Workload, rng):
    x = (np.arange(w.n) + 0.5) / w.n
    slots = np.arange(w.k) / w.k
    base = slots + 0.25 / w.k * _jitter(rng, w.k)
    amp = 0.4 * (1.0 + AMP_JITTER * _jitter(rng, w.k))
    centre = slots + CENTRE_JITTER * _jitter(rng, w.k)
    dens = [_unit_mean(1.0 + a * np.cos(2 * np.pi * (x - c))) for a, c in zip(amp, centre)]
    return base[:, None], dens


def _torus_family(w: Workload, rng):
    x = (np.arange(w.n) + 0.5) / w.n
    side = int(round(np.sqrt(w.k)))
    slots = np.array([(i / side, j / side) for i in range(side) for j in range(side)])
    base = np.mod(slots + 0.25 / side * _jitter(rng, slots.shape), 1.0)
    amp = 0.4 * (1.0 + AMP_JITTER * _jitter(rng, slots.shape))
    centre = slots + CENTRE_JITTER * _jitter(rng, slots.shape)
    dens = []
    for (ax, ay), (cx, cy) in zip(amp, centre):
        fx = 1.0 + ax * np.cos(2 * np.pi * (x - cx))
        fy = 1.0 + ay * np.cos(2 * np.pi * (x - cy))
        dens.append(_unit_mean(np.outer(fx, fy)))
    return base, dens


def _box_family(w: Workload, rng):
    x = (np.arange(w.n) + 0.5) / w.n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    slots = (np.arange(w.k) + 0.5) / w.k
    base = slots + 0.25 / w.k * _jitter(rng, w.k)
    sigma = 0.15 * (1.0 + AMP_JITTER * _jitter(rng, w.k))
    cx = 0.3 + 0.4 * slots + CENTRE_JITTER * _jitter(rng, w.k)
    cy = 0.5 + CENTRE_JITTER * _jitter(rng, w.k)
    dens = []
    for s, a, b in zip(sigma, cx, cy):
        bump = np.exp(-((xx - a) ** 2 + (yy - b) ** 2) / (2 * s * s))
        dens.append(BOX_FLOOR + (1.0 - BOX_FLOOR) * _unit_mean(bump))
    return base[:, None], dens


_FAMILIES = {"circle-moser": _circle_family, "torus-moser": _torus_family,
             "box-brenier": _box_family}


def family(w: Workload, seed: int) -> tuple[np.ndarray, list[GridDensity]]:
    """Base points (k, d) and one validated GridDensity per base point."""
    base, values = _FAMILIES[w.name](w, np.random.default_rng(seed))
    dens = [GridDensity(w.dim, w.n, v) for v in values]
    for i, g in enumerate(dens):
        if g.min_value < MIN_DENSITY:
            raise ValueError(f"{w.name} seed {seed}: density {i} falls below "
                             f"MIN_DENSITY ({g.min_value:.3e})")
    return base, dens


def write_inputs(w: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's densities and manifest; return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    base, dens = family(w, seed)
    cols = [f"x{a}" for a in range(base.shape[1])]
    lines = [f"space,{w.space}", "interp,nearest", ",".join(cols + ["path"])]
    for i, (pt, g) in enumerate(zip(base, dens)):
        name = f"meas_{i:03d}.csv"
        g.to_csv(directory / name)
        lines.append(",".join([repr(float(v)) for v in pt] + [name]))
    manifest = directory / "kernel.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
