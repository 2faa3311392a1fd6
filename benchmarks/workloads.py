"""The benchmark's workloads: generated inputs, program commands, checks.

Each workload is a list of ``som-atlas`` commands run one at a time on
seeded logs. ``setup`` commands prepare state and are not timed; the
``sequence`` is timed, repeated, and checked.

- ``train-longlog``: a long log on a small map. Nearly all time is the
  per-step training kernel; render and k-means are never touched.
- ``train-bigmap``: a short log on large maps. The all-pairs lattice distance
  matrix dominates time and memory; the kernel is a minor share.
- ``analyze``: no timed training. A 40x40 map trained in set-up is read by
  classify, cluster, both plane renderings and correlate over a 20k-row log
  with clamped and malformed rows, so CSV parsing, BMU search, k-means,
  rendering and model loading carry the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable

import check
from sensorlog import COLUMNS, SensorLog, make_log

DIM = len(COLUMNS)

LONGLOG_ROWS = 5000
LONGLOG_SIDE = 20
LONGLOG_EPOCHS = 16

BIGMAP_ROWS = 500
BIGMAP_SIDES = (58, 62, 66, 70)
BIGMAP_EPOCHS = 2

ANALYZE_TRAIN_ROWS = 4000
ANALYZE_SIDE = 40
ANALYZE_EPOCHS = 4
ANALYZE_ROWS = 20000
ANALYZE_OUT_OF_RANGE = 0.01
ANALYZE_MALFORMED = 0.005
ANALYZE_K = 6
ANALYZE_PPM_RADIUS = 6.0


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]  # som-atlas arguments, paths relative to the work dir
    outputs: tuple[str, ...]  # files or directories it writes


@dataclass
class Workload:
    name: str
    inputs: dict[str, SensorLog]
    sequence: list[Command]
    # (workload, work dir) -> (failures per command label, the map's QE, TE)
    checker: Callable[["Workload", Path], tuple[dict[str, list[str]], float, float]]
    setup: list[Command] = field(default_factory=list)

    def check(self, workdir: Path) -> tuple[dict[str, list[str]], float, float]:
        return self.checker(self, Path(workdir))


def _train(label, csv, model, side, epochs) -> Command:
    argv = ("train", "--input", csv, "--model", model, "--width", str(side),
            "--height", str(side), "--epochs", str(epochs))  # fmt: skip
    return Command(label, argv, (model,))


def build(name: str, seed: int) -> Workload:
    if name == "train-longlog":
        return Workload(
            name,
            {"long.csv": make_log(seed, LONGLOG_ROWS, stream=0)},
            [_train("train", "long.csv", "longlog.model", LONGLOG_SIDE, LONGLOG_EPOCHS)],
            _check_longlog,
        )
    if name == "train-bigmap":
        return Workload(
            name,
            {"short.csv": make_log(seed, BIGMAP_ROWS, stream=1)},
            [
                _train(f"train {s}x{s}", "short.csv", f"bigmap-{s}.model", s, BIGMAP_EPOCHS)
                for s in BIGMAP_SIDES
            ],
            _check_bigmap,
        )
    if name == "analyze":
        log = make_log(seed, ANALYZE_ROWS, stream=3,
                       out_of_range_share=ANALYZE_OUT_OF_RANGE,
                       malformed_share=ANALYZE_MALFORMED)  # fmt: skip
        model = ("--model", "analyze.model")
        return Workload(
            name,
            {"train.csv": make_log(seed, ANALYZE_TRAIN_ROWS, stream=2), "log.csv": log},
            [
                Command("classify", ("classify", *model, "--input", "log.csv",
                                     "--output", "classify.csv", "--drop-bad-rows"),
                        ("classify.csv",)),
                Command("cluster", ("cluster", *model, "--k", str(ANALYZE_K), "--input",
                                    "log.csv", "--drop-bad-rows", "--outdir", "cluster"),
                        ("cluster",)),
                Command("planes ppm", ("planes", *model, "--outdir", "planes-ppm",
                                       "--format", "ppm", "--radius", str(ANALYZE_PPM_RADIUS)),
                        ("planes-ppm",)),
                Command("planes svg", ("planes", *model, "--outdir", "planes-svg",
                                       "--format", "svg"),
                        ("planes-svg",)),
                Command("correlate", ("correlate", *model, "--output", "correlation.csv"),
                        ("correlation.csv",)),
            ],  # fmt: skip
            _check_analyze,
            setup=[
                _train("setup train", "train.csv", "analyze.model", ANALYZE_SIDE, ANALYZE_EPOCHS)
            ],
        )
    raise ValueError(f"unknown workload {name!r}")


# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "train-longlog": "training on a long log and a small map: time is the per-step kernel",
    "train-bigmap": "training on large maps: the all-pairs lattice distances dominate "
    "time and memory",
    "analyze": "classify, cluster, render and correlate a 20k-row log with a trained map: "
    "parsing, BMU search, k-means and rendering, no training",
}
WORKLOADS = tuple(WHY)


def _check_longlog(wl: Workload, workdir: Path):
    errors, qe, te = check.check_model(workdir / "longlog.model", workdir / "long.csv", DIM)
    return {"train": errors}, qe, te


def _check_bigmap(wl: Workload, workdir: Path):
    failures, qes, tes = {}, [], []
    for cmd in wl.sequence:
        errors, qe, te = check.check_model(workdir / cmd.outputs[0], workdir / "short.csv", DIM)
        failures[cmd.label] = errors
        qes.append(qe)
        tes.append(te)
    return failures, fmean(qes), fmean(tes)


def _check_analyze(wl: Workload, workdir: Path):
    errors, qe, te = check.check_model(workdir / "analyze.model", workdir / "train.csv", DIM)
    failures = {"setup train": errors}
    if errors:
        return failures, qe, te
    model = check.read_model(workdir / "analyze.model")
    raw = check.read_csv_rows(workdir / "log.csv", DIM)
    log = wl.inputs["log.csv"]
    n_good = log.n_rows - log.n_malformed
    if raw.shape[0] != n_good:
        failures["setup train"] = [f"log.csv: {raw.shape[0]} good rows, generated {n_good}"]
        return failures, qe, te
    failures["classify"] = check.check_classify(workdir / "classify.csv", model, raw)
    failures["cluster"] = check.check_cluster(workdir / "cluster", model, ANALYZE_K, n_good)
    ppm, svg = [], []
    for i, name in enumerate(COLUMNS):
        ppm += check.check_ppm(workdir / "planes-ppm" / f"plane_{i}_{name}.ppm",
                               model.width, model.height, ANALYZE_PPM_RADIUS)  # fmt: skip
        svg += check.check_svg(workdir / "planes-svg" / f"plane_{i}_{name}.svg", model.n_neurons)
    failures["planes ppm"] = ppm
    failures["planes svg"] = svg
    failures["correlate"] = check.check_correlation(workdir / "correlation.csv", model)
    return failures, qe, te
