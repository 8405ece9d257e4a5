"""Benchmark harness for debox.

    python3 bench/run.py --workload boundary-lshade --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/README.md) against the package in ``src/`` of
the checkout this file sits in, checks every output, prints a readable
report and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` a traced pass follows the
untraced measurement and the metrics are the per-layer ones.  Times and
rates are reported at nominal machine speed (see ``speed.py``).  Everything
the run leaves behind goes to ``.bench_out/`` in the checkout.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, before debox is imported

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("boundary-lshade", "interior-mixed", "sweep-analysis")
#: fresh interpreters timed for setup_s (after one untimed warm-up in a full run)
SETUP_PROBES = {"full": 5, "tiny": 1}
PROBE_TIMEOUT_S = 60
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit) of every end-to-end metric, in report order; "s" values are
#: times and "1/s" values rates, both reported at nominal machine speed
END_TO_END = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("analysis_s", "s"),
    ("final_error_decades", "decades"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced measurement repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every run for the harness's smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _workdir(args) -> str:
    return str(OUT / "work" / args.workload)


def _probe(args) -> int:
    """Inside a fresh interpreter: time the import and the workload's set-up."""
    before_import = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workloads.make(args.workload, args.seed, args.size, _workdir(args) + "-probe").first_setup()
    done = time.perf_counter()
    import speed

    speed.reference_kernel()  # the first call pays one-off costs
    machine = speed.MachineSpeed()
    machine.sample()
    print(json.dumps({"import_s": imported - before_import, "setup_s": done - _STARTED,
                      "speed": machine.speed()}))
    return 0


def _at_nominal_speed(values: dict, units: dict, speed: float) -> dict:
    """Scale times and rates measured at ``speed`` to nominal machine speed."""
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {name: value * scale[units[name]] if units[name] in scale else value
            for name, value in values.items()}


def _setup_probes(args) -> list[dict]:
    """Set-up and import times of fresh interpreters, one after another.

    Each probe also times the speed reference right after its set-up, so
    its times can be scaled to nominal speed with a reading of its own.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--size", args.size]
    warmups = 1 if args.size == "full" else 0  # the first import may compile bytecode
    probes = []
    for i in range(warmups + SETUP_PROBES[args.size]):
        done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        if i >= warmups:
            probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def _probe_median(probes: list[dict], key: str, nominal: bool) -> float:
    return statistics.median(p[key] * (p["speed"] if nominal else 1.0) for p in probes)


def _measure(workload, seconds: float, machine) -> None:
    """Repeat the workload's steps, pass after pass, until ``seconds`` are up.

    The first pass always completes; later passes stop at the first step
    that would start after the deadline.  The speed reference is timed
    before every step, so it sees the same drift as the steps.
    """
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for k in range(workload.steps):
            if passes and time.perf_counter() >= deadline:
                return
            machine.sample()
            workload.run_step(k)
        passes += 1


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(workloads_module) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "nproc": workloads_module.usable_cpus(),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def _report(args, metrics, units, speed, fingerprint, environment, attempted, failures) -> None:
    print(f"debox benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in environment.items() if k != "threads"))
    print("fingerprint  " + "  ".join(f"{k}={v}" for k, v in fingerprint.items()))
    print(f"machine speed {speed:.4f} of nominal; times and rates below are at nominal speed")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    failed_frac = len(failures) / attempted if attempted else 1.0
    print(f"  {'failed_frac':<28} {failed_frac:>16.6g} ratio  ({len(failures)} of {attempted})")
    for message in failures[:20]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    args = _parse(argv)
    for name in THREAD_VARIABLES:  # before numpy loads; inherited by probes and sweep workers
        os.environ[name] = "1"
    if not (SRC / "debox" / "__init__.py").is_file():
        print(f"error: no debox package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return _probe(args)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        probes = _setup_probes(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import speed
    import workloads

    try:
        workload = workloads.make(args.workload, args.seed, args.size, _workdir(args))
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    machine = speed.MachineSpeed()
    _measure(workload, args.seconds, machine)
    measured = dict(workload.end_to_end())
    measured["setup_s"] = _probe_median(probes, "setup_s", nominal=False)
    measured["peak_rss_mb"] = _peak_rss_mb(include_children=args.workload == "sweep-analysis")
    fingerprint = workload.fingerprint()

    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            for k in range(workload.steps):
                machine.sample()
                workload.run_step(k, tracer)
        extra = dict(workload.layer_extras())
        extra["setup.import_s"] = _probe_median(probes, "import_s", nominal=False)
        extra["trace.overhead_s"] = workload.trace_wall - workload.untraced_scope_s()
        values = spans.layer_values(tracer, workload.trace_wall, extra)
        fingerprint.update({
            "trials": values["engine.trials"],
            "traced_evaluate_calls": values["benchmarks.evaluate_calls"],
            "rng_calls": values["core.rng_calls"],
            "fit_beta_calls": values["bchm.fit_beta_calls"],
        })
        tracer.save(str(OUT / f"spans-{args.workload}.npz"))
        units = dict(spans.LAYER_METRICS)
        values["machine.speed"] = machine.speed()
        metrics = {name: values[name] for name, _ in spans.LAYER_METRICS}
    else:
        units = dict(END_TO_END)
        metrics = {name: measured[name] for name, _ in END_TO_END}
    raw_metrics = metrics
    metrics = _at_nominal_speed(metrics, units, machine.speed())
    # set-up happened in the probes, so their own speed readings scale it
    for name, key in (("setup_s", "setup_s"), ("setup.import_s", "import_s")):
        if name in metrics:
            metrics[name] = _probe_median(probes, key, nominal=True)

    environment = _environment(workloads)
    failures = workload.failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "environment": environment, "fingerprint": fingerprint,
        "measured": measured, "raw_metrics": raw_metrics, "metrics": metrics,
        "speed": machine.speed(), "speed_samples_s": machine.samples, "setup_probes": probes,
        "step_times": workload.step_times(),
        "attempted": workload.attempted, "failures": failures,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _report(args, metrics, units, machine.speed(), fingerprint, environment, workload.attempted, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
