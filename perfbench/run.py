#!/usr/bin/env python3
"""Benchmark of the cubecond library.

Run from the repository root:

    python3 perfbench/run.py --workload verify_many --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

``--trace 0`` measures the end-to-end metrics with tracing off.  The
measuring is split over ``WORKERS`` fresh processes run one after another,
each for ``--seconds / WORKERS``, and the figures pool their inputs.  Every
time is scaled to a fixed machine speed: a short numpy reference kernel,
which calls no library code, is timed before each input and after the last,
and an input's time is multiplied by ``REFERENCE_S`` over the median of the
four reference times before it and the four after it.  On a shared machine
the speed of one process swings by a third or more within seconds; the
scaled times follow the library, not the machine.  The raw times are kept in
the detail record.

``--trace 1`` runs, in one process, a fixed number of rounds untraced and
then the same rounds with every public library function wrapped by
``tracing.Tracer``, and reports per-module self time, work counts and the
tracing overhead.

The metric table goes to stdout; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the machine block and the output digest, is written to
``.perfbench_out/`` together with the spans of a traced run.  The library is
imported from ``src/`` of the checkout the script sits in, with BLAS pinned
to one thread.  See perfbench/README.md for the workloads and the metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()
_LOAD_AT_START = os.getloadavg()[0]
# pinned before numpy is first imported, in this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("verify_many", "deep_levels", "univariate_suite", "montecarlo")
WORKERS = 3
MIN_WORKER_ROUNDS = 2  # so that no worker's figures rest on a single round
MEASURE_LIMIT_S = 120.0  # measuring stops here in any case, so a run ends within 180 s
# the reference kernel, whose time measures the machine's current speed (see _scale)
REFERENCE_REPEATS = 25
REFERENCE_S = 0.0025  # its typical time on the machine in perfbench/README.md


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a worker process of an untraced run: measure, print raw results as JSON
    parser.add_argument("--worker-min-rounds", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unavailable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _machine():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
        "loadavg_1m_at_start": _LOAD_AT_START,
    }


# ---------------------------------------------------------------------------
# measuring (in a worker process, or in the traced run's single process)
# ---------------------------------------------------------------------------


@functools.cache
def _reference_input():
    import numpy as np

    points = np.linspace(-1.0, 1.0, 256).reshape(128, 2)
    exponents = np.array([[0, 0], [1, 0], [0, 1], [2, 1], [3, 0]])
    return points, exponents, np.ones(len(exponents))


def reference_seconds():
    """Time of a fixed numpy kernel that calls no library code: a 5-term
    bivariate polynomial evaluated on 128 points by broadcasting, the mix of
    small-array numpy calls and interpreter work that the library spends its
    time in."""
    points, exponents, coefficients = _reference_input()
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        (coefficients * (points[:, None, :] ** exponents).prod(axis=2)).sum(axis=1)
    return time.perf_counter() - start


class _Pass:
    """Outcomes of one pass over a sequence of rounds."""

    def __init__(self):
        self.latencies = []  # wall seconds, one per input
        self.references = []  # reference_seconds() before each input and after the last
        self.labels = []
        self.round_times = []  # wall seconds per round, excluding input generation
        self.records = {}  # (round, label) -> deterministic output
        self.failures = []  # (round, label, reason)
        self.draws = 0


def _run_job(job, tracer, input_id):
    """Run and check one input: (seconds, ok, record, failure reason)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = job.run()
        else:
            with tracer.span("bench.input", input_id):
                out = job.run()
        latency = time.perf_counter() - start
        ok, record = job.check(out)
    except Exception as exc:  # a crashing input counts as failed; the run goes on
        return time.perf_counter() - start, False, None, f"{type(exc).__name__}: {exc}"
    return latency, bool(ok), record, None if ok else "output check failed"


def _measure(rounds, seconds=None, min_rounds=0, tracer=None, reference=False):
    """Run the rounds given by ``rounds(r)`` (or the list ``rounds``).

    With ``seconds``, rounds continue until both ``seconds`` have passed and
    ``min_rounds`` are done; a list of rounds is run exactly once.  With
    ``reference``, the reference kernel is timed before each input and after
    the last.
    """
    result = _Pass()
    start = time.perf_counter()
    r = 0
    while True:
        if isinstance(rounds, list):
            if r == len(rounds):
                break
            jobs = rounds[r]
        else:
            elapsed = time.perf_counter() - start
            if (r >= min_rounds and elapsed >= seconds) or elapsed > MEASURE_LIMIT_S / WORKERS:
                break
            jobs = rounds(r)
        round_start = time.perf_counter()
        for job in jobs:
            if reference:
                result.references.append(reference_seconds())
            latency, ok, record, reason = _run_job(job, tracer, len(result.latencies))
            result.latencies.append(latency)
            result.labels.append(job.label)
            result.records[(r, job.label)] = record
            result.draws += job.draw
            if not ok:
                result.failures.append((r, job.label, reason))
        result.round_times.append(time.perf_counter() - round_start)
        r += 1
    if reference:
        result.references.append(reference_seconds())
    return result


def _scale(latencies, references):
    """Latencies at the machine speed where the reference kernel takes
    REFERENCE_S.  Input i is scaled by the median of the four reference
    times before it (``references[i-3..i]``) and the four after it, so that
    a preempted reference sample does not move it."""
    return [
        t * REFERENCE_S / statistics.median(references[max(0, i - 3): i + 5])
        for i, t in enumerate(latencies)
    ]


def _digest(records, round_index=0):
    chosen = sorted((label, rec) for (r, label), rec in records.items() if r == round_index)
    return hashlib.sha256(json.dumps(chosen, default=str).encode()).hexdigest()[:16]


def _set_up_and_warm(name, seed):
    """Imports, model-constant warm-up and first-round generation (timed as
    set-up, in raw and in scaled seconds), then one untimed run of the first
    round so that lazy set-up in the libraries is done before measuring."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT_DIR)
    first_round = workload.round(0)
    setup_s = time.perf_counter() - _T0
    # scaled like an input, by the reference times right after it
    references = [reference_seconds() for _ in range(9)]
    scaled_setup_s = setup_s * REFERENCE_S / statistics.median(references)
    return workload, first_round, (setup_s, scaled_setup_s), _measure([first_round])


def _check_same(reference, other, reason):
    """Inputs run in both passes must give the same outputs."""
    for key, record in reference.records.items():
        if key in other.records and other.records[key] != record:
            other.failures.append((*key, reason))


_REPEAT = "output differs between two runs of one input"


def run_worker(args):
    workload, first_round, (setup_s, scaled_setup_s), warm = _set_up_and_warm(
        args.workload, args.seed
    )
    rounds = lambda r: first_round if r == 0 else workload.round(r)  # noqa: E731
    measured = _measure(rounds, args.seconds, args.worker_min_rounds, reference=True)
    _check_same(warm, measured, _REPEAT)
    print(json.dumps({
        "setup_s": scaled_setup_s,
        "raw_setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "labels": measured.labels,
        "latencies": _scale(measured.latencies, measured.references),
        "raw_latencies": measured.latencies,
        "reference_median_s": statistics.median(measured.references),
        "rounds": len(measured.round_times),
        "wall_s": sum(measured.round_times),
        "attempted": len(warm.latencies) + len(measured.latencies),
        "failures": warm.failures + measured.failures,
        "digest": _digest(measured.records),
    }))
    return 0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _min_rounds(workload_cls, round_size):
    """Rounds needed for at least ten inputs beyond the tail percentile."""
    needed = int(10 / (1 - workload_cls.tail_pct / 100)) + 1
    return -(-needed // round_size)


def _untraced(args, detail):
    import numpy as np
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    round_size = len(workload_cls(args.seed, OUT_DIR).round(0))
    min_rounds = max(MIN_WORKER_ROUNDS, -(-_min_rounds(workload_cls, round_size) // WORKERS))
    workers = []
    for _ in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
             "--worker-min-rounds", str(min_rounds)],
            stdout=subprocess.PIPE, text=True, timeout=170 / WORKERS, cwd=ROOT, check=True,
        )
        workers.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def time_metrics(key):
        latencies = np.concatenate([w[key] for w in workers])
        by_slot = {}
        for label, latency in zip(labels, latencies):
            by_slot.setdefault(label, []).append(latency)
        # a slot's median over every round shrugs off a burst of load on a few
        slot_median = [statistics.median(v) for v in by_slot.values()]
        return latencies, {
            "inputs_per_s": (len(slot_median) / sum(slot_median), "1/s"),
            "input_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
            "input_tail_ms": (float(np.percentile(latencies, workload_cls.tail_pct)) * 1e3, "ms"),
        }

    labels = [label for w in workers for label in w["labels"]]
    latencies, metrics = time_metrics("latencies")
    median = lambda key: statistics.median(w[key] for w in workers)  # noqa: E731
    metrics["peak_rss_mb"] = (median("peak_rss_mb"), "MB")
    metrics["setup_s"] = (median("setup_s"), "s")
    raw = time_metrics("raw_latencies")[1]
    raw["setup_s"] = (median("raw_setup_s"), "s")
    tail = metrics["input_tail_ms"][0] / 1e3
    failures = [f for w in workers for f in w["failures"]]
    digests = sorted({w["digest"] for w in workers})
    if len(digests) > 1:
        failures.append((0, "*", f"round-0 outputs differ between processes: {digests}"))
    detail.update(
        tail_percentile=workload_cls.tail_pct,
        tail_samples_beyond=int((latencies > tail).sum()),
        samples=len(latencies),
        inputs_per_round=round_size,
        digest_round0=digests[0],
        reference_s=REFERENCE_S,
        unscaled_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        workers=[{k: v for k, v in w.items()
                  if k not in ("labels", "latencies", "raw_latencies", "failures")}
                 for w in workers],
    )
    return metrics, sum(w["attempted"] for w in workers), failures


def _traced(args, detail):
    import tracing
    import workloads

    workload, first_round, _, warm = _set_up_and_warm(args.workload, args.seed)
    k = _min_rounds(workloads.WORKLOADS[args.workload], len(first_round))
    rounds = [first_round] + [workload.round(r) for r in range(1, k)]
    measured = _measure(rounds)
    _check_same(warm, measured, _REPEAT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _measure(rounds, tracer=tracer)
    finally:
        tracer.restore()
    tracer.save(OUT_DIR / f"{args.workload}-spans.npz")
    _check_same(measured, traced, "traced output differs from untraced")
    metrics = tracing.layer_metrics(
        tracer, sum(traced.round_times), sum(measured.round_times), traced.draws
    )
    detail.update(
        rounds=k,
        inputs_per_round=len(first_round),
        digest_round0=_digest(measured.records),
        module_share={
            name[: -len(".self_s")]: value / metrics["trace.wall_s"][0]
            for name, (value, unit) in metrics.items()
            if name.endswith(".self_s")
        },
    )
    passes = (warm, measured, traced)
    return metrics, sum(len(p.latencies) for p in passes), [f for p in passes for f in p.failures]


def run_one(args):
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": _machine()}
    metrics, attempted, failures = (_traced if args.trace else _untraced)(args, detail)
    detail.update(
        failed_frac=len(failures) / attempted,
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} inputs, {len(failures)} failed, digest {detail['digest_round0']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {detail['failed_frac']:14.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": detail["metrics"],
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=180, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited with {proc.returncode}\n")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "cubecond" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cubecond sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.worker_min_rounds is not None:
        return run_worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
