"""Benchmark of the som-atlas CLI pipeline on seeded sensor logs.

    python3 benchmarks/run.py --workload analyze --seed 0 --seconds 35 --trace 0

runs from the repository root against the source tree (``PYTHONPATH=src``);
it builds nothing and leaves ``SOM_ATLAS_KERNELS`` as the caller set it.
One process runs the program's commands one at a time, with no threads.

``--trace 0`` spawns each command of the workload's sequence as its own
``python -m som_atlas.cli`` process, repeating the sequence for about
``--seconds``, and reports the end-to-end metrics. ``--trace 1``
instead calls ``som_atlas.cli.main`` in-process: once untraced, once with
spans around every layer (see ``tracing.py``), and once more with memory
tracing for the training commands; it reports the per-layer metrics. Either
way every output is checked (``check.py``) and digested: all runs of a seed
must produce the same bytes, and for seeds listed in ``digests.json`` the
bytes recorded there. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn.

Spans, per-command samples, digests and the environment go to
``.bench_work/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Cold `--version` processes per run; setup_s is their median.
VERSION_SPAWNS = 9
# A command still running after this long is killed and the run stops with an error.
COMMAND_TIMEOUT_S = 90.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qe_final", "norm"),
    ("te_final", "ratio"),
)


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def digest(path: Path) -> str | None:
    """SHA-256 of a file, or of a directory's sorted (name, file digest) list."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if path.is_dir():
        h = hashlib.sha256()
        for p in sorted(path.rglob("*")):
            if p.is_file():
                h.update(f"{p.relative_to(path).as_posix()} {digest(p)}\n".encode())
        return h.hexdigest()
    return None


class Digests:
    """Output digests of one run, compared across repetitions and to the record."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.seen: dict[str, str] = {}

    def problems(self, workdir: Path, cmd: workloads.Command) -> list[str]:
        out = []
        for rel in cmd.outputs:
            d = digest(workdir / rel)
            key = f"{cmd.label}:{rel}"
            if d is None:
                out.append(f"{rel} not written")
            elif self.seen.setdefault(key, d) != d:
                out.append(f"{rel} differs from the first run of this seed")
            elif key in self.golden and self.golden[key] != d:
                out.append(f"{rel} differs from the digest recorded for this seed")
        return out


def clear_outputs(workdir: Path, cmd: workloads.Command) -> None:
    for rel in cmd.outputs:
        p = workdir / rel
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()


def _alarm(signum, frame):
    raise TimeoutError


def _terminate(signum, frame):
    # Unwind like an interrupt, so a running command is killed and reaped.
    sys.exit(128 + signum)


def spawn(args, workdir: Path, env) -> dict:
    """Run ``som-atlas <args>`` as a process; time it from spawn to exit."""
    with open(workdir / "stdout.txt", "w+b") as out, open(workdir / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "som_atlas.cli", *args],
            cwd=workdir, env=env, stdout=out, stderr=err,
        )  # fmt: skip
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "seconds": seconds,
            "returncode": proc.returncode,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace")[-2000:],
        }


def call_in_process(args, workdir: Path) -> dict:
    """Run ``som_atlas.cli.main(args)`` here, in ``workdir``, its output captured."""
    from som_atlas import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    except Exception:  # an escaped exception is a failed operation, not a crash
        code = -1
        err.write(traceback.format_exc())
    return {"seconds": time.perf_counter() - t0, "returncode": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}  # fmt: skip


def run_command(cmd, workdir, ops, digests, runner) -> dict:
    clear_outputs(workdir, cmd)
    result = runner(cmd.argv)
    problems = [] if result["returncode"] == 0 else [
        f"exit {result['returncode']}: {result['stderr'].strip()[-300:]}"
    ]  # fmt: skip
    if not problems:
        problems = digests.problems(workdir, cmd)
    ops.record(cmd.label, problems)
    return result


def measure_setup(workdir, env, ops) -> list[float]:
    samples = []
    for _ in range(VERSION_SPAWNS):
        r = spawn(["--version"], workdir, env)
        ok = r["returncode"] == 0 and r["stdout"].startswith("som-atlas ")
        ops.record("--version", [] if ok else [f"exit {r['returncode']}, output {r['stdout']!r}"])
        samples.append(r["seconds"])
    return samples


def environment() -> dict:
    from som_atlas import kernels
    import numpy

    # On x86 Linux, "cache size" is the last-level (L3) cache.
    cpuinfo = {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            cpuinfo.setdefault(key.strip(), value.strip())
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )  # fmt: skip
        sha = git.stdout.strip() if git.returncode == 0 else None
    h = hashlib.sha256()
    for p in sorted((SRC / "som_atlas").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(f"{p.relative_to(SRC).as_posix()} {digest(p)}\n".encode())
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpuinfo.get("model name"),
        "l3_cache": cpuinfo.get("cache size"),
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
    }


def untraced(wl, workdir, env, seconds, ops, digests) -> tuple[dict, dict]:
    """Repeat the sequence in fresh processes for about ``seconds``.

    Another repetition starts only if it would end less than half a
    repetition past the deadline, so a run overshoots by little on average.
    """
    setup = measure_setup(workdir, env, ops)
    reps = []
    t0 = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        reps.append([run_command(c, workdir, ops, digests, lambda a: spawn(a, workdir, env))
                     for c in wl.sequence])  # fmt: skip
        now = time.perf_counter()
        if now - t0 + (now - t_rep) / 2 >= seconds:
            break
    walls = [sum(r["seconds"] for r in rep) for rep in reps]
    per_command = {
        cmd.label: {
            "mean_s": statistics.fmean(rep[i]["seconds"] for rep in reps),
            "samples_s": [rep[i]["seconds"] for rep in reps],
            "maxrss_mb": max(rep[i]["maxrss_mb"] for rep in reps),
        }
        for i, cmd in enumerate(wl.sequence)
    }
    metrics = {
        # The host's speed drifts over tens of seconds, so the mean over the
        # whole run window varies less from run to run than a median of a few
        # repetitions does.
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c["maxrss_mb"] for c in per_command.values()),
    }
    detail = {"wall_samples_s": walls, "setup_samples_s": setup, "commands": per_command}
    return metrics, detail


def traced(wl, workdir, ops, digests) -> tuple[dict, dict]:
    """Untraced, traced and memory passes of the sequence in this process."""

    def runner(args):
        return call_in_process(args, workdir)

    t0 = time.perf_counter()
    for cmd in wl.sequence:
        run_command(cmd, workdir, ops, digests, runner)
    untraced_s = time.perf_counter() - t0

    with tracing.Tracer() as tracer:
        for cmd in wl.sequence:
            run_command(cmd, workdir, ops, digests, runner)
    with tracing.Tracer(memory=True) as memory:
        for cmd in wl.sequence:
            if cmd.argv[0] == "train":
                run_command(cmd, workdir, ops, digests, runner)
    cost = tracing.span_cost()
    metrics = tracing.layer_metrics(tracer.spans, memory.spans, untraced_s, cost)
    detail = {
        "span_fields": ["id", "parent", "name", "start", "end", "attrs"],
        "span_cost_s": cost,
        "untraced_s": untraced_s,
        "spans": tracer.spans,
        "memory_spans": memory.spans,
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    wl = workloads.build(name, seed)
    workdir = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for fname, log in wl.inputs.items():
        (workdir / fname).write_text(log.text, encoding="utf-8")
    inputs = {fname: digest(workdir / fname) for fname in wl.inputs}
    expected = golden.get(str(seed), {}).get(name, {})
    ops = Ops()
    for fname, d in inputs.items():
        want = expected.get(f"input:{fname}")
        ops.record(f"generate {fname}", [] if want in (None, d) else ["input differs from record"])

    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    digests = Digests(expected)
    for cmd in wl.setup:
        run_command(cmd, workdir, ops, digests, lambda a: spawn(a, workdir, env))
    if trace:
        metrics, detail = traced(wl, workdir, ops, digests)
    else:
        metrics, detail = untraced(wl, workdir, env, seconds, ops, digests)

    failures, qe, te = wl.check(workdir)
    for label, problems in failures.items():
        ops.record(f"check {label}", problems)
    if not trace:
        metrics["qe_final"] = qe
        metrics["te_final"] = te

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "metrics": metrics,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "digests": {**{f"input:{k}": v for k, v in inputs.items()}, **digests.seen},
        **detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record))
    # Generated logs and images are large; the record above keeps their digests.
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def print_record(rec: dict, units: dict) -> None:
    env = rec["environment"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} backend={env['backend']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")  # fmt: skip
    for name, value in rec["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for label, c in rec.get("commands", {}).items():
        print(f"  command {label:30s} mean {c['mean_s']:.3f} s of {len(c['samples_s'])}, "
              f"rss {c['maxrss_mb']:.0f} MB")  # fmt: skip
    if "wall_samples_s" in rec:
        print(f"  wall_s and command times are means of {len(rec['wall_samples_s'])} runs; "
              f"setup_s is the median of {len(rec['setup_samples_s'])}")  # fmt: skip
    print(f"  operations {rec['attempted']}, failed {len(rec['failures'])}")
    for f in rec["failures"]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "som_atlas" / "cli.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    e2e, per_layer = declared_metrics()
    code_e2e = dict(END_TO_END)
    code_layer = {name: unit for name, unit, _ in tracing.PER_LAYER}
    if e2e != code_e2e or per_layer != code_layer:
        print("run.py: BENCHMARK.json metrics differ from the ones this code reports",
              file=sys.stderr)  # fmt: skip
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    golden = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = {**e2e, **per_layer}
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
        print_record(rec, units)
        records.append(rec)

    failed = sum(len(r["failures"]) for r in records)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
