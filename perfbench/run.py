"""Phase-split wall-clock benchmark of the SR3 reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The program is imported from ``src/``; the
benchmark drives it only through public entry points (see ``cells.py``).

With ``--trace 0`` the run repeats its workload iteration, at least
twice, and stops at the iteration boundary nearest to ``--seconds``. It
reports each phase time as its mean over the iterations (``save_s`` over
every sample of the phase) and ``setup_s`` as the median over every build,
scaled to a reference host speed (``hostspeed.py``); the report line also
holds the times as measured.
With ``--trace 1`` it first runs the untraced benchmark in a child
process, then one traced iteration with per-layer wrappers installed
(``layers.py``), checks that the traced simulated outputs equal the
untraced ones, and reports the per-layer metrics plus the tracing
overhead.

Standard output: one ``report`` JSON line (run manifest, phases,
simulated outputs, oracle problems), then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 when every check passed, 1 when a check failed, 2 when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workload -> (family, mechanism)
WORKLOADS = {
    "scale-tree-20k": ("scale", "tree"),
    "live-line-wordcount": ("live", "line"),
}

SCALE_NODES = 20000
LIVE_DURATION = 30.0
#: Live cell builds per iteration; setup_s is the median over all of them.
LIVE_SETUP_REPS = 15
MIN_ITERATIONS = 2
#: Host-speed passes per gap between timed phases: a scale run has about
#: ten gaps, a live run about twenty.
CALIBRATION_PASSES = {"scale": 3, "live": 2}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=SCALE_NODES, help="scale cell size")
    parser.add_argument(
        "--duration", type=float, default=LIVE_DURATION, help="live run length, sim-s"
    )
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over every source file of the program, in path order."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def manifest(args, params):
    """What the numbers depend on besides the code: reported with every run."""
    from repro.sim import flowvec

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "have_numpy": bool(flowvec.HAVE_NUMPY),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def baseline_match(family, mechanism, args, simulated):
    """At seed 0 and full size: do the simulated outputs equal BENCH_sr3.json?

    Information only; the repository's own perf gate owns that check.
    """
    if args.seed != 0:
        return None
    try:
        with open(os.path.join(ROOT, "BENCH_sr3.json")) as handle:
            gated = json.load(handle)["metrics"]
    except (OSError, ValueError, KeyError):
        return None
    if family == "scale" and args.nodes == SCALE_NODES:
        key = f"scale/{args.nodes}/{mechanism}"
        return {key: gated.get(key) == simulated["sim_recovery_s"]}
    if family == "live":
        out = {}
        for key, value in (
            (f"live/{mechanism}/recovery_s", simulated["sim_recovery_s"]),
            (f"live/{mechanism}/p99_during_s", simulated["sim_p99_during_s"]),
        ):
            out[key] = value is not None and gated.get(key) == round(value, 6)
        return out
    return None


def run_iterations(family, params, args, reference, gap):
    import cells

    iterations = []
    killed_at = None  # known after the first live iteration
    began = time.perf_counter()
    while True:
        if family == "scale":
            iterations.append(cells.run_scale(params, args.seed, prefix=True, gap=gap))
        else:
            iterations.append(
                cells.run_live(params, args.seed, LIVE_SETUP_REPS, reference, killed_at, gap)
            )
            killed_at = iterations[0].info["killed_at"]
        # Drop the simulator so the next iteration starts from an empty heap.
        iterations[-1].sim = None
        elapsed = time.perf_counter() - began
        # Stop at the boundary nearest to the deadline, so a long scale
        # iteration neither overshoots it by a whole iteration nor is cut.
        if len(iterations) >= MIN_ITERATIONS and (
            elapsed + elapsed / len(iterations) / 2 >= args.seconds
        ):
            return iterations


def end_to_end(iterations):
    """The end-to-end metrics as measured, in host seconds."""
    # Phase times are means, not medians: on a shared host the CPU speed can
    # flip between a fast and a slow level every few seconds, so a sub-second
    # phase sampled a dozen times is bimodal and its median jumps between them.
    mean = statistics.fmean
    recover_total = sum(it.recover_s for it in iterations)
    return {
        "setup_s": statistics.median([s for it in iterations for s in it.setup_samples]),
        "save_s": mean([s for it in iterations for s in it.save_samples]),
        "recover_s": recover_total / len(iterations),
        "wall_s": mean([it.wall_s for it in iterations]),
        "events_per_s": sum(it.recover_events for it in iterations) / recover_total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def to_reference_host(raw, factor):
    """Scale times by ``factor`` and rates by its inverse; memory as is."""
    out = {name: raw[name] * factor for name in ("setup_s", "save_s", "recover_s", "wall_s")}
    out["events_per_s"] = raw["events_per_s"] / factor
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    return out


def jsonable(value):
    return json.loads(json.dumps(value))


def untraced(family, mechanism, params, args):
    import cells

    reference = cells.live_reference(params, args.seed) if family == "live" else None
    speed = hostspeed.HostSpeed()
    passes = CALIBRATION_PASSES[family]
    iterations = run_iterations(family, params, args, reference, lambda: speed.sample(passes))
    speed.sample(passes)
    problems = [p for it in iterations for p in it.problems]
    simulated = jsonable(iterations[0].simulated)
    if any(jsonable(it.simulated) != simulated for it in iterations[1:]):
        problems.append("simulated outputs differ between iterations of one seed")
    raw = end_to_end(iterations)
    metrics = to_reference_host(raw, speed.factor())
    info = {
        "raw": raw,
        "host_speed": {
            "reference_s": hostspeed.REFERENCE_S,
            "factor": speed.factor(),
            "samples": speed.samples,
        },
        "iterations": len(iterations),
        "error_rate": sum(it.failed for it in iterations) / sum(it.attempted for it in iterations),
        "baseline_match": baseline_match(family, mechanism, args, simulated),
        "phases": {
            name: [getattr(it, name) for it in iterations]
            for name in ("save_samples", "recover_s", "wall_s")
        },
        "setup_samples": [s for it in iterations for s in it.setup_samples],
    }
    if family == "live":
        served = sum(it.info["served"] + it.info["replayed"] for it in iterations)
        info["tuples_per_s"] = served / sum(it.info["run_s"] for it in iterations)
    return iterations, metrics, simulated, problems, info


def traced(family, params, args):
    """Untraced child run first, then one traced iteration in this process."""
    import cells
    import layers

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
        "--nodes", str(args.nodes), "--duration", str(args.duration),
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=175)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"perfbench: untraced run exited {child.returncode}")
    report = json.loads(lines[-2])

    trace = layers.LayerTrace()
    trace.install()
    try:
        if family == "scale":
            it = cells.run_scale(params, args.seed, prefix=False)
        else:
            it = cells.run_live(params, args.seed, 1, report["simulated"]["checksums"])
    finally:
        trace.uninstall()
    simulated = jsonable(it.simulated)
    problems = list(it.problems)
    if simulated != report["simulated"]:
        problems.append(
            f"traced simulated outputs {simulated} differ from untraced {report['simulated']}"
        )
    base_wall = report["raw"]["wall_s"]
    extra = {
        "live.served": it.info.get("served", 0.0),
        "live.replayed": it.info.get("replayed", 0.0),
        "trace.wall_s": it.wall_s,
        "trace.untraced_wall_s": base_wall,
        "trace.overhead_s": it.wall_s - base_wall,
        "trace.overhead_ratio": (it.wall_s - base_wall) / base_wall,
    }
    metrics = layers.per_layer_metrics(trace, it.sim, extra)
    info = {
        "untraced": report["raw"],
        "baseline_match": report["baseline_match"],
        "phases": {"save_s": it.save_samples[0], "recover_s": it.recover_s, "wall_s": it.wall_s},
    }
    return [it], metrics, simulated, problems, info


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {repro.__file__}, not the program in {SRC}", file=sys.stderr)
        return 2
    family, mechanism = WORKLOADS[args.workload]
    # cells and layers import the program, so they load only once src/ is on the path.
    import cells

    if family == "scale":
        params = cells.scale_params(mechanism, args.nodes)
    else:
        params = cells.live_params(args.duration)

    if args.trace:
        iterations, metrics, simulated, problems, info = traced(family, params, args)
    else:
        iterations, metrics, simulated, problems, info = untraced(family, mechanism, params, args)
    units = declared_units(args.trace)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    correct = failed == 0 and not problems
    if len(problems) > 20:
        problems = problems[:20] + [f"... {len(problems) - 20} more"]
    report = {
        "report": "perfbench-1",
        "manifest": manifest(args, params),
        "simulated": simulated,
        "problems": problems,
        **info,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
