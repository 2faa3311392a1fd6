"""Command-line front end.

Subcommands wire ingestion, training, analysis and rendering into
reproducible runs: every command prints its full effective configuration
(defaults and seeds included) before doing work, writes outputs atomically,
and uses a stable exit-code contract:

    0  success
    1  usage error (bad flags or values, or a map too large to allocate)
    2  data/format error (CSV or model file)
    3  I/O error
"""

from __future__ import annotations

import argparse
import gc
import re
import shlex
import sys
import time
import warnings
from pathlib import Path

# Only what parsing and ``train`` need loads here; the other commands import
# ``analysis``, ``render`` and ``pulse`` when they run.
from . import __version__, kernels
from .errors import SomAtlasError
from .fileio import atomic_write_bytes, atomic_write_csv, check_directory, check_writable
from .hexgrid import HexGrid
from .ingest import append_time_counter, normalize, parse_csv
from .model_io import check_attribute_names, load_model, save_model
from .som import SomModel, TrainingSchedule, init_codebook, quantization_error, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

DEFAULT_KMEANS_SEED = 7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="som-atlas", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"som-atlas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[_csv_flags()], help="train a map on a sensor-log CSV")
    p.add_argument("--input", required=True, help="training CSV")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--width", type=int, default=20)
    p.add_argument("--height", type=int, default=20)
    p.add_argument("--epochs", type=int, default=TrainingSchedule.epochs)
    p.add_argument("--alpha0", type=float, default=TrainingSchedule.alpha0)
    p.add_argument("--alpha-end", type=float, default=TrainingSchedule.alpha_end)
    p.add_argument("--sigma0", type=float, default=None, help="default: max(width, height)/2")
    p.add_argument("--no-shuffle", action="store_true", help="present rows in file order")
    seed = p.add_mutually_exclusive_group()
    # ``type`` converts a string default only when the flag is absent, so an
    # explicit ``--seed 42`` is not taken for the default and conflicts too.
    seed.add_argument("--seed", type=int, default=str(TrainingSchedule.seed))
    seed.add_argument(
        "--random-seed",
        action="store_true",
        help="draw the seed from OS entropy instead of the fixed default",
    )
    p.add_argument(
        "--time-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="prepend a Time counter attribute with this sampling period",
    )

    p = sub.add_parser("planes", help="render one heatmap per attribute")
    p.add_argument("--model", required=True)
    p.add_argument("--outdir", required=True)
    _render_flags(p)

    p = sub.add_parser("classify", parents=[_csv_flags()], help="assign rows to neurons")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="assignments CSV")

    p = sub.add_parser("cluster", parents=[_csv_flags()], help="k-means over the codebook")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kmeans-seed", type=int, default=DEFAULT_KMEANS_SEED)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--outdir", required=True)
    p.add_argument("--input", default=None, help="optional data CSV for per-cluster statistics")
    _render_flags(p)

    p = sub.add_parser("correlate", help="component-plane correlation matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="correlation CSV")

    p = sub.add_parser("features", parents=[_csv_flags()], help="pulse-curve features")
    p.add_argument("--input", required=True, help="two-column CSV: time_s, pressure_bar")
    p.add_argument("--t-open", type=float, required=True)
    p.add_argument("--t-close", type=float, required=True)
    p.add_argument("--regen-duration", type=float, required=True)
    p.add_argument("--output", required=True, help="features CSV")

    return parser


def _csv_flags() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--delimiter", default=",")
    shared.add_argument("--no-header", action="store_true")
    shared.add_argument("--drop-bad-rows", action="store_true")
    return shared


def _render_flags(p) -> None:
    p.add_argument("--format", choices=("svg", "ppm"), default="svg")
    p.add_argument("--radius", type=float, default=12.0)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"som-atlas: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    handler = {
        "train": cmd_train,
        "planes": cmd_planes,
        "classify": cmd_classify,
        "cluster": cmd_cluster,
        "correlate": cmd_correlate,
        "features": cmd_features,
    }[args.command]
    try:
        with warnings.catch_warnings():
            # One line per warning, without the source location and line.
            warnings.showwarning = lambda message, *_: print(
                f"som-atlas: warning: {message}", file=sys.stderr
            )
            handler(args)
    except SomAtlasError as exc:
        print(f"som-atlas: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"som-atlas: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. --width and --height too large to allocate
        print(f"som-atlas: error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"som-atlas: error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _echo_config(args, **extra) -> None:
    """One reproducibility line: every effective value, defaults included.

    Each value is shell-quoted, so ``shlex.split`` gives back every pair.
    """
    pairs = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key != "command":
            pairs[key] = value
    pairs.update(extra)
    print("config: " + " ".join(f"{k}={shlex.quote(str(v))}" for k, v in pairs.items()))


def _read_table(args):
    table = parse_csv(
        args.input,
        delimiter=args.delimiter,
        header=not args.no_header,
        drop_bad_rows=args.drop_bad_rows,
    )
    for rownum, reason in table.dropped_rows:
        print(f"dropped row {rownum}: {reason}", file=sys.stderr)
    return table


def cmd_train(args) -> None:
    seed = args.seed
    if args.random_seed:
        import secrets

        seed = secrets.randbits(64)
    grid = HexGrid(args.width, args.height)
    schedule = TrainingSchedule(
        epochs=args.epochs,
        alpha0=args.alpha0,
        alpha_end=args.alpha_end,
        sigma0=args.sigma0,
        shuffle=not args.no_shuffle,
        seed=seed,
    ).resolved(grid)
    # The bound library in the cache names the build that trains.
    library = {} if kernels.LIBRARY is None else {"kernel_library": kernels.LIBRARY}
    _echo_config(args, seed=seed, sigma0=schedule.sigma0, kernel=kernels.BACKEND, **library)
    check_writable(args.model)  # the save's own error, before reading or training

    table = _read_table(args)
    if args.time_period is not None:
        table = append_time_counter(table, args.time_period)
    check_attribute_names(table.names)  # before training, not at the save after it
    ntable = normalize(table)

    t0 = time.perf_counter()
    # The seeded codebook ``train`` starts from, drawn here only to score it
    # and freed before ``train`` draws it again: one codebook is held at a time.
    initial = init_codebook(grid, ntable.n_attrs, schedule.seed)
    qe_initial = quantization_error(SomModel(grid, initial, ntable.schema, schedule), ntable)
    del initial
    model = train(ntable, grid, schedule)
    qe_final = quantization_error(model, ntable)
    elapsed = time.perf_counter() - t0

    save_model(model, args.model)
    print(
        f"trained: rows={ntable.n_rows} dim={ntable.n_attrs} "
        f"qe_initial={qe_initial:.6f} qe_final={qe_final:.6f} seconds={elapsed:.2f}"
    )
    print(f"model written to {args.model}")


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _check_outputs(outdir: Path, names) -> None:
    """Raise the error writing any of ``names`` in ``outdir`` would raise, if it exists.

    ``check_directory`` has checked ``outdir`` itself; a new one holds no file yet.
    """
    if outdir.is_dir():
        for name in names:
            check_writable(outdir / name)


def cmd_planes(args) -> None:
    from .analysis import component_plane
    from .render import render_plane

    _echo_config(args)
    check_directory(args.outdir)
    model = load_model(args.model)
    outdir = Path(args.outdir)
    names = [f"plane_{i}_{_sanitize(a.name)}.{args.format}" for i, a in enumerate(model.schema)]
    _check_outputs(outdir, names)
    for i, name in enumerate(names):
        values = component_plane(model, i)
        data = render_plane(values, model.grid, format=args.format, cell_radius=args.radius)
        # Made once an image is drawn, so rejected render arguments leave nothing.
        outdir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(outdir / name, data)
    print(f"wrote {model.dim} plane images to {outdir}")


def cmd_classify(args) -> None:
    from .analysis import assignment_rows, classify

    _echo_config(args)
    check_writable(args.output)
    model = load_model(args.model)
    table = _read_table(args)
    assignments = classify(model, table)
    atomic_write_csv(args.output, assignment_rows(assignments))
    n_clamped = int(assignments["clamped"].sum())
    print(f"classified {len(assignments)} rows ({n_clamped} clamped) to {args.output}")


def cmd_cluster(args) -> None:
    from .analysis import assignment_rows, classify, cluster_stats, kmeans_codebook, stats_rows
    from .render import render_cluster_map

    _echo_config(args)
    check_directory(args.outdir)
    outdir = Path(args.outdir)
    names = ["neuron_clusters.csv", f"cluster_map.{args.format}"]
    if args.input is not None:
        names += ["assignments.csv", "cluster_stats.csv"]
    _check_outputs(outdir, names)
    model = load_model(args.model)
    table = None if args.input is None else _read_table(args)
    clusters = kmeans_codebook(model, args.k, kmeans_seed=args.kmeans_seed, max_iters=args.max_iters)
    # Drawn and classified before anything is written, so rejected render
    # arguments or a mismatched --input leave nothing.
    image = render_cluster_map(
        clusters.neuron_labels, model.grid, format=args.format, cell_radius=args.radius
    )
    if table is not None:
        assignments = classify(model, table)
        stats = cluster_stats(clusters, assignments, table)
    outdir.mkdir(parents=True, exist_ok=True)

    atomic_write_csv(outdir / names[0], [("neuron", "cluster"), *enumerate(clusters.neuron_labels)])
    atomic_write_bytes(outdir / names[1], image)

    if table is not None:
        atomic_write_csv(outdir / names[2], assignment_rows(assignments, clusters))
        atomic_write_csv(outdir / names[3], stats_rows(stats, table.names))

    print(f"k={clusters.k} inertia={clusters.inertia:.6f} outputs in {outdir}")


def cmd_correlate(args) -> None:
    from .analysis import STRONG_CORRELATION, correlation_rows, plane_correlation

    _echo_config(args)
    check_writable(args.output)
    model = load_model(args.model)
    report = plane_correlation(model)
    atomic_write_csv(args.output, correlation_rows(report))
    strong = report.strong_pairs()
    print(f"correlation matrix ({model.dim}x{model.dim}) written to {args.output}")
    for i, j, r in strong:
        print(f"correlated (|r| >= {STRONG_CORRELATION}): "
              f"{report.names[i]} / {report.names[j]} r={r:.4f}")


def cmd_features(args) -> None:
    from .pulse import curve_from_table, extract_pulse_features

    _echo_config(args)
    check_writable(args.output)
    table = _read_table(args)
    curve = curve_from_table(table, args.t_open, args.t_close, args.regen_duration)
    feats = extract_pulse_features(curve)
    atomic_write_csv(
        args.output,
        [
            ("p_start", "p_min", "pulse_area", "regen_area"),
            (feats.p_start, feats.p_min, feats.pulse_area, feats.regen_area),
        ],
    )
    print(
        f"features: p_start={feats.p_start:g} p_min={feats.p_min:g} "
        f"pulse_area={feats.pulse_area:g} regen_area={feats.regen_area:g}"
    )


def run() -> None:
    """Process entry point: exit with the code of ``main`` on ``sys.argv``.

    Outputs are closed by then and the standard streams flush at exit.
    Freezing the heap on the way out, ``--version`` and ``--help`` included,
    spares the interpreter's final collections a walk over every object the
    process holds, numpy's included: tens of milliseconds that free nothing
    an exiting process needs.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
