"""Output checks that share no code with the program.

Everything here re-derives what the program should have produced from the
files alone: the model text format is parsed afresh, normalization and the
best-matching-unit search are brute-force numpy, and hex adjacency comes from
the odd-r lattice definition. Each ``check_*`` returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import functools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSIFY_TOL = 1e-12
CORRELATION_TOL = 1e-9


@dataclass(frozen=True)
class Model:
    width: int
    height: int
    seed: int
    names: tuple[str, ...]
    raw_min: np.ndarray
    raw_max: np.ndarray
    quasi_constant: np.ndarray
    weights: np.ndarray  # (width * height, dim)

    @property
    def n_neurons(self) -> int:
        return self.width * self.height


def read_model(path) -> Model:
    """Parse a ``som-atlas-model v1`` file; raises ValueError when malformed."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "som-atlas-model v1":
        raise ValueError("missing model header")
    grid = lines[1].split()
    width, height = int(grid[1]), int(grid[2])
    dim = int(lines[2].split()[1])
    fields = dict(tok.split("=", 1) for tok in lines[3].split()[1:])
    attrs = [line.split(" ") for line in lines[4 : 4 + dim]]
    weight_lines = lines[4 + dim :]
    if len(weight_lines) != width * height:
        raise ValueError(f"{len(weight_lines)} weight lines for {width * height} neurons")
    weights = np.array([[float(v) for v in line.split()[2:]] for line in weight_lines])
    if weights.shape != (width * height, dim):
        raise ValueError(f"weights have shape {weights.shape}")
    return Model(
        width=width,
        height=height,
        seed=int(fields["seed"]),
        names=tuple(" ".join(a[2:-3]) for a in attrs),
        raw_min=np.array([float(a[-3]) for a in attrs]),
        raw_max=np.array([float(a[-2]) for a in attrs]),
        quasi_constant=np.array([a[-1] == "1" for a in attrs]),
        weights=weights,
    )


def read_csv_rows(path, width: int) -> np.ndarray:
    """Data rows of ``width`` finite numbers; anything else is skipped."""
    good = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in reader:
            if len(record) != width:
                continue
            try:
                values = [float(c) for c in record]
            except ValueError:
                continue
            if all(math.isfinite(v) for v in values):
                good.append(values)
    return np.array(good, dtype=np.float64).reshape(-1, width)


def min_max_normalize(raw: np.ndarray) -> np.ndarray:
    """Training normalization: observed per-column min to 0, max to 1."""
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    return (raw - lo) / (hi - lo)


def schema_normalize(model: Model, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classification normalization with the model's ranges, clamped to [0, 1]."""
    clamped = np.any((raw < model.raw_min) | (raw > model.raw_max), axis=1)
    span = np.where(model.quasi_constant, 1.0, model.raw_max - model.raw_min)
    x = np.clip((raw - model.raw_min) / span, 0.0, 1.0)
    x[:, model.quasi_constant] = 0.5
    return x, clamped


def best_two(weights: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: best unit, its Euclidean distance, and the second-best unit.

    Squared distances accumulate one attribute at a time over blocks of rows
    small enough to stay in cache; ties go to the lower unit index.
    """
    n, dim = weights.shape
    chunk = max(1, (1 << 16) // n)
    best = np.empty(x.shape[0], dtype=np.intp)
    second = np.empty(x.shape[0], dtype=np.intp)
    dist = np.empty(x.shape[0])
    acc = np.empty((chunk, n))
    tmp = np.empty((chunk, n))
    for start in range(0, x.shape[0], chunk):
        part = x[start : start + chunk]
        m = part.shape[0]
        a, t = acc[:m], tmp[:m]
        a.fill(0.0)
        for j in range(dim):
            np.subtract(part[:, j, None], weights[None, :, j], out=t)
            np.multiply(t, t, out=t)
            a += t
        rows = np.arange(m)
        b = a.argmin(axis=1)
        best[start : start + m] = b
        dist[start : start + m] = np.sqrt(a[rows, b])
        a[rows, b] = np.inf
        second[start : start + m] = a.argmin(axis=1) if n > 1 else b
    return best, dist, second


def hex_hops(width: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lattice hop distance between linear node indices of an odd-r grid."""
    ra, ca = np.divmod(a, width)
    rb, cb = np.divmod(b, width)
    dq = (ca - (ra - (ra & 1)) // 2) - (cb - (rb - (rb & 1)) // 2)
    dr = ra - rb
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2


def topographic_error(width: int, best: np.ndarray, second: np.ndarray) -> float:
    """Share of rows whose best and second-best units are not lattice neighbours."""
    return float(np.mean(hex_hops(width, best, second) != 1))


def initial_codebook(model: Model) -> np.ndarray:
    """The seeded codebook training starts from: i.i.d. uniform [0, 1), PCG64."""
    return np.random.default_rng(model.seed).random(model.weights.shape)


def check_model(model_path, train_csv, dim: int) -> tuple[list[str], float, float]:
    """Weights finite and in [0, 1], and training beat the initial codebook.

    Returns the failures with the model's quantization and topographic error
    on the normalized training rows.
    """
    try:
        model = read_model(model_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{model_path}: unreadable model ({exc})"], math.nan, math.nan
    w = model.weights
    if not np.all(np.isfinite(w)):
        return [f"{model_path}: non-finite weights"], math.nan, math.nan
    errors = []
    if w.min() < 0.0 or w.max() > 1.0:
        errors.append(f"{model_path}: weights outside [0, 1]")
    x = min_max_normalize(read_csv_rows(train_csv, dim))
    best, dist, second = best_two(w, x)
    qe = float(dist.mean())
    qe_initial = float(best_two(initial_codebook(model), x)[1].mean())
    if not qe < qe_initial:
        errors.append(f"{model_path}: qe {qe} not below the initial codebook's {qe_initial}")
    return errors, qe, topographic_error(model.width, best, second)


def _unreadable_fails(check):
    """A missing or unparsable output is a failure of the check, not a crash."""

    @functools.wraps(check)
    def guarded(path, *args):
        try:
            return check(path, *args)
        except (OSError, ValueError, KeyError, IndexError, StopIteration, ET.ParseError) as exc:
            return [f"{path}: unreadable ({type(exc).__name__}: {exc})"]

    return guarded


@_unreadable_fails
def check_classify(assign_csv, model: Model, raw: np.ndarray) -> list[str]:
    """Every row's distance is the brute-force minimum; clamp flags agree."""
    with open(assign_csv, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    header, body = records[0], records[1:]
    if len(body) != raw.shape[0]:
        return [f"{assign_csv}: {len(body)} rows, expected {raw.shape[0]} good rows"]
    col = {name: i for i, name in enumerate(header)}
    neuron = np.array([int(r[col["neuron"]]) for r in body])
    dist = np.array([float(r[col["distance"]]) for r in body])
    clamped = np.array([r[col["clamped"]] == "1" for r in body])
    x, want_clamped = schema_normalize(model, raw)
    _, want_dist, _ = best_two(model.weights, x)
    at_neuron = np.sqrt(((x - model.weights[neuron]) ** 2).sum(axis=1))
    errors = []
    if np.any(np.abs(dist - want_dist) > CLASSIFY_TOL):
        bad = int(np.argmax(np.abs(dist - want_dist)))
        errors.append(
            f"{assign_csv}: row {bad} distance {float(dist[bad])!r}, "
            f"brute force {float(want_dist[bad])!r}"
        )
    if np.any(np.abs(at_neuron - want_dist) > CLASSIFY_TOL):
        errors.append(f"{assign_csv}: a row's neuron is not a best matching unit")
    if not np.array_equal(clamped, want_clamped):
        errors.append(f"{assign_csv}: clamped flags disagree with the model's ranges")
    return errors


def ppm_size(width: int, height: int, radius: float) -> tuple[int, int]:
    """Canvas of an odd-r pointy-top hex map of circumradius ``radius``."""
    w = math.sqrt(3.0) * radius * (width + 0.5)
    h = radius * (1.5 * (height - 1) + 2.0)
    return math.ceil(w), math.ceil(h)


@_unreadable_fails
def check_ppm(path, width: int, height: int, radius: float) -> list[str]:
    tokens = Path(path).read_bytes().split()
    if tokens[:1] != [b"P3"] or len(tokens) < 4:
        return [f"{path}: not a P3 image"]
    pw, ph, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    errors = []
    if (pw, ph) != ppm_size(width, height, radius):
        errors.append(f"{path}: size {pw}x{ph}, expected {ppm_size(width, height, radius)}")
    samples = np.array(tokens[4:], dtype=np.int64)
    if maxval != 255 or samples.size != 3 * pw * ph:
        errors.append(f"{path}: {samples.size} samples for {pw}x{ph} at maxval {maxval}")
    elif samples.min() < 0 or samples.max() > 255:
        errors.append(f"{path}: sample outside [0, 255]")
    return errors


@_unreadable_fails
def check_svg(path, n_neurons: int) -> list[str]:
    root = ET.parse(path).getroot()
    n = len(root.findall("{http://www.w3.org/2000/svg}polygon"))
    return [] if n == n_neurons else [f"{path}: {n} hexagons for {n_neurons} neurons"]


@_unreadable_fails
def check_correlation(path, model: Model) -> list[str]:
    """Symmetric, unit diagonal, and equal to numpy's Pearson coefficients."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    names = tuple(records[0][1:])
    if names != model.names or [r[0] for r in records[1:]] != list(names):
        return [f"{path}: axes {names} do not match the model's attributes"]
    m = np.array([[float(c) for c in r[1:]] for r in records[1:]])
    errors = []
    if not np.array_equal(m, m.T):
        errors.append(f"{path}: matrix not symmetric")
    if np.any(np.abs(np.diag(m) - 1.0) > CORRELATION_TOL):
        errors.append(f"{path}: diagonal not 1")
    if np.any(np.abs(m - np.corrcoef(model.weights.T)) > CORRELATION_TOL):
        errors.append(f"{path}: coefficients differ from numpy corrcoef")
    return errors


@_unreadable_fails
def check_cluster(outdir, model: Model, k: int, n_rows: int) -> list[str]:
    """k labels over the neurons; every good row assigned to its neuron's label."""
    outdir = Path(outdir)
    with open(outdir / "neuron_clusters.csv", encoding="utf-8", newline="") as fh:
        labels = np.array([int(r[1]) for r in list(csv.reader(fh))[1:]])
    errors = []
    if labels.size != model.n_neurons or set(labels.tolist()) != set(range(k)):
        errors.append(f"{outdir}: labels are not {k} clusters over {model.n_neurons} neurons")
        return errors
    with open(outdir / "assignments.csv", encoding="utf-8", newline="") as fh:
        body = list(csv.reader(fh))[1:]
    if len(body) != n_rows:
        errors.append(f"{outdir}: {len(body)} assignments, expected {n_rows}")
    elif any(labels[int(r[1])] != int(r[2]) for r in body):
        errors.append(f"{outdir}: a row's cluster differs from its neuron's")
    with open(outdir / "cluster_stats.csv", encoding="utf-8", newline="") as fh:
        n_stats = len(list(csv.reader(fh))) - 1
    if n_stats != k * len(model.names):
        errors.append(f"{outdir}: {n_stats} statistics rows, expected {k * len(model.names)}")
    errors += check_svg(outdir / "cluster_map.svg", model.n_neurons)
    return errors
