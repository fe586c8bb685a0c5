"""vineshift benchmark runner.

    python3 perfbench/run.py --workload shift-adapt --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. It imports `vineshift` from `src/` of the
checkout it sits in and times calls into the package's public functions
from outside. With `--trace 0` it repeats the workload's pipeline on
one set of inputs until the next repetition would overrun `--seconds`,
and reports end-to-end metrics: medians over repetitions of times scaled
to a reference host speed, measured by a fixed loop run around each one.
With `--trace 1` it runs repetition 0 once untraced and once with every
layer entry point wrapped, and reports per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# BLAS/OpenMP pools are sized when numpy loads, so the pin comes first.
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Fresh-process imports timed per run; setup_s is their median.
SETUP_PROBES = 5
MB = 1024.0 * 1024.0


def _load_package():
    """Import vineshift from this checkout's src/ and nowhere else."""
    if not (SRC / "vineshift" / "__init__.py").is_file():
        sys.exit(f"run.py: no vineshift sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vineshift
    if Path(vineshift.__file__).resolve().parent != SRC / "vineshift":
        sys.exit(f"run.py: imported vineshift from {vineshift.__file__}, not {SRC}")


# -- provenance ------------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package and benchmark sources; keys the work-count record."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("vineshift/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_name() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"git": git_revision(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name(),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": PINNED_THREADS}


# -- set-up ------------------------------------------------------------------------

_PROBE = """
import sys, time
t0 = time.perf_counter()
import vineshift
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{name!r}].make_inputs({seed}, 0)
print(t1 - t0 + time.perf_counter() - t2)
"""


def setup_seconds(name: str, seed: int) -> float:
    """`import vineshift` plus input generation, timed in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = _PROBE.format(bench=str(BENCH_DIR), name=name, seed=seed)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- work counts that repeat exactly for a seed --------------------------------------

def check_repeats(name: str, seed: int, kind: str, values: dict, checks):
    """Flag a run whose exact counts differ from an earlier run with the same seed.

    Records live under perfbench/out/counts, keyed by workload, seed and the
    source digest, so a change to the code starts a fresh record.
    """
    path = OUT_DIR / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    earlier = record.get(kind)
    if earlier is None:
        record[kind] = values
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return
    differ = sorted(k for k in set(earlier) | set(values) if earlier.get(k) != values.get(k))
    checks.check("counts repeat for this seed", not differ, f"differ: {differ}")


# -- host speed -------------------------------------------------------------------

# On a shared host the processor runs the same code up to 1.7 times slower
# for stretches of seconds to minutes, often longer than a whole run, so no
# statistic over one run's raw times stays put from run to run. Each timed
# piece of work is therefore bracketed by fixed reference loops that do not
# touch vineshift, and its time is divided by the host slowness they show.
# The scaled times are the gated ones; raw times are printed.
#
# Interpreted Python slows down far more than vectorised numpy on such a
# host, so there are two loops, each timed against what it takes on a quiet
# host. Their weights follow the work: Kendall tau's pure-Python merge sort
# is 70% of gauss-deep's traced time, 10% of fit-large's and 2% of
# shift-adapt's; weighting the interpreted loop by 0.3 kept the scaled
# times of both gauss-deep and shift-adapt steadiest in a trace of each.
VECTOR_REF_S, INTERP_REF_S = 0.0027, 0.0026
INTERP_WEIGHT = 0.3
CAL_ROUNDS = 11
_CAL = None


def _inversions(seq: list) -> int:
    """Merge sort counting inversions, in pure Python."""
    if len(seq) < 2:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    count = _inversions(left) + _inversions(right)
    i = j = k = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            seq[k] = right[j]
            count += len(left) - i
            j += 1
        else:
            seq[k] = left[i]
            i += 1
        k += 1
    seq[k:] = left[i:] + right[j:]
    return count


def host_slowness() -> float:
    """Host slowness now: the weighted median times of the two reference
    loops over their quiet-host times.

    The vectorised loop is a Gaussian kernel sum over 400 x 2000 points, in
    a buffer allocated once so that page faults do not vary; the
    interpreted one is a merge sort of 1500 floats like Kendall tau's.
    """
    import numpy as np
    global _CAL
    if _CAL is None:
        rng = np.random.default_rng(0)
        _CAL = (np.linspace(-3.0, 3.0, 400)[:, None], np.linspace(-3.0, 3.0, 2000)[None, :],
                np.empty((400, 2000)), rng.random(1500).tolist())
    x, c, buf, values = _CAL
    vector, interp = [], []
    for _ in range(CAL_ROUNDS):
        t0 = perf_counter()
        np.subtract(x, c, out=buf)
        np.square(buf, out=buf)
        buf *= -0.5
        np.exp(buf, out=buf)
        buf.sum(axis=1)
        t1 = perf_counter()
        _inversions(list(values))
        vector.append(t1 - t0)
        interp.append(perf_counter() - t1)
    return ((1 - INTERP_WEIGHT) * median(vector) / VECTOR_REF_S
            + INTERP_WEIGHT * median(interp) / INTERP_REF_S)


def bracketed(work, count: int):
    """Run work() count times, each between two host-slowness readings.

    Returns the results, their raw seconds, and each run's host slowness
    (mean of the readings either side of it); raw / slowness is the time
    on a quiet host.
    """
    cals, results, raw = [host_slowness()], [], []
    for _ in range(count):
        t0 = perf_counter()
        results.append(work())
        raw.append(perf_counter() - t0)
        cals.append(host_slowness())
    slow = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    return results, raw, slow


# -- untraced run: end-to-end metrics -------------------------------------------------

def timed_run(wl, seed: int, seconds: float):
    """Repeat the pipeline on repetition 0's inputs until --seconds is used up.

    wall_s is the median over repetitions of the pipeline's wall time at
    the reference host speed; setup_s likewise over fresh-process set-ups.
    """
    from workloads import Checks, Clock, run_repetition, warm_up

    checks = Checks()
    setup_raw, _, setup_slow = bracketed(lambda: setup_seconds(wl.name, seed), SETUP_PROBES)
    warm_up(wl, seed, OUT_DIR)
    inputs = wl.make_inputs(seed, 0)
    walls, slow, clocks, first = [], [], [], None
    start = perf_counter()
    while True:
        clock = Clock()
        [(wall, out, rep_checks)], _, [f] = bracketed(
            lambda: run_repetition(wl, inputs, clock, OUT_DIR), 1)
        checks.results += rep_checks.results
        walls.append(wall)
        slow.append(f)
        clocks.append(clock)
        if first is None:
            first = out
        else:
            checks.check(f"repetition {len(walls) - 1} reproduces repetition 0",
                         out["tll"] == first["tll"]
                         and out["model_bytes"] == first["model_bytes"]
                         and out.get("nmse") == first.get("nmse"))
        if perf_counter() - start + median(walls) > seconds:
            break

    scaled = [w / f for w, f in zip(walls, slow)]
    setups = [t / f for t, f in zip(setup_raw, setup_slow)]
    mid = sorted(range(len(scaled)), key=scaled.__getitem__)[(len(scaled) - 1) // 2]
    stages, f = clocks[mid], slow[mid]
    metrics = {
        "wall_s": (median(scaled), "s"),
        "setup_s": (median(setups), "s"),
        "model_bytes": (first["model_bytes"], "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed, not in BENCHMARK.json: raw times and host slowness; the stages
    # of the median repetition, scaled like wall_s, which are single calls too
    # short to gate (fit_s, score_rows_per_s); and metrics of shift-adapt only.
    extra = {"raw_wall_s": (median(walls), "s"),
             "raw_setup_s": (median(setup_raw), "s"),
             "host_slowness": (median(slow + setup_slow), "x"),
             "fit_s": (stages.seconds["fit"] / f, "s"),
             "score_rows_per_s": (stages.rows["score"] * f / stages.seconds["score"], "1/s"),
             "tll": (first["tll"], "nats")}
    if wl.uses_mmd:
        extra.update({
            "adapt_s": (stages.seconds["adapt"] / f, "s"),
            "predict_rows_per_s": (stages.rows["predict"] * f / stages.seconds["predict"],
                                   "1/s"),
            "nmse_source": (first["nmse"]["source"], "ratio"),
            "nmse_semi": (first["nmse"]["semi_supervised"], "ratio"),
            "nmse_unsup": (first["nmse"]["unsupervised"], "ratio"),
        })
    for key, (value, _) in {**metrics, **extra}.items():
        checks.check(f"{key} finite", math.isfinite(value), repr(value))
    check_repeats(wl.name, seed, "untraced",
                  {"tll": first["tll"], "model_bytes": first["model_bytes"],
                   "rvine.edges": first["edges"],
                   **{k: v[0] for k, v in extra.items() if k.startswith("nmse")}}, checks)
    spread = {"wall_s": scaled, "raw_wall_s": walls, "setup_s": setups,
              "raw_setup_s": setup_raw}
    return metrics, extra, spread, checks, len(walls)


# -- traced run: per-layer metrics ----------------------------------------------------

SPAN_FIELDS = {
    "bicopula.h": ("calls", "busy_s", "kernel_evals"),
    "bicopula.log_density": ("calls", "busy_s", "kernel_evals"),
    "bicopula.fit": ("calls", "busy_s"),
    "statcore.kendall_tau": ("calls", "busy_s", "rows"),
    "statcore.kernel1d": ("calls", "busy_s", "kernel_evals"),
    "mmd.permutation_test": ("calls", "busy_s", "pooled_rows", "kernel_bytes"),
    "rvine.fit_vine": ("busy_s", "self_s"),
    "rvine.tree_build": ("busy_s", "self_s"),
    "rvine.log_density": ("busy_s", "self_s"),
    "adapt.adapt_vine": ("busy_s", "self_s"),
    "regress.conditional_density_batch": ("calls", "busy_s", "self_s", "queries"),
    "regress.default_grid": ("busy_s",),
    "modelfile.save": ("busy_s",),
    "modelfile.load": ("busy_s",),
    "synth": ("busy_s",),
}
PEAK_STAGES = ("fit", "adapt", "predict", "score")
UNITS = {"busy_s": "s", "self_s": "s", "kernel_bytes": "bytes"}


def per_layer_metrics(tracer, clock, out, overhead: float) -> dict:
    busy, own = tracer.times()
    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        for field in fields:
            value = {"busy_s": busy.get(span, 0.0), "self_s": own.get(span, 0.0)}.get(
                field, tracer.counts.get(f"{span}.{field}", 0))
            metrics[f"{span}.{field}"] = (value, UNITS.get(field, "count"))
    metrics["rvine.edges"] = (out["edges"], "count")
    metrics["adapt.factors_tested"] = (out["tested"], "count")
    metrics["adapt.factors_changed"] = (out["changed"], "count")
    metrics["modelfile.bytes"] = (tracer.counts.get("modelfile.save.bytes", 0), "bytes")
    for stage in PEAK_STAGES:
        metrics[f"stage.{stage}.peak_alloc_mb"] = (clock.peak_alloc.get(stage, 0) / MB, "MB")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def call_pattern_checks(wl, tracer, out, checks):
    """What each workload must and must not call, as the traced run saw it."""
    n = tracer.counts.get
    checks.check("kendall_tau traced", n("statcore.kendall_tau.calls", 0) > 0)
    if wl.uses_kernel_copula:
        checks.check("kernel h-functions traced", n("bicopula.h.calls", 0) > 0)
    else:
        checks.check("no kernel copula work",
                     n("bicopula.h.calls", 0) == 0 and n("bicopula.h.kernel_evals", 0) == 0
                     and n("bicopula.log_density.kernel_evals", 0) == 0)
        # GaussianCopula.fit calls tau through bicopula's own binding
        fits = n("bicopula.fit.calls", 0)
        checks.check("every Gaussian pair fit shows its tau call",
                     fits > 0 and tracer.children("bicopula.fit", "statcore.kendall_tau") == fits)
    tests = n("mmd.permutation_test.calls", 0)
    if wl.uses_mmd:
        # adapt calls permutation_test through adapt's own binding
        checks.check("one traced MMD test per tested factor",
                     tests == out["tested"] > 0
                     and tracer.children("adapt.adapt_vine", "mmd.permutation_test") == tests,
                     f"{tests} tests, {out['tested']} factors tested")
    else:
        checks.check("no MMD tests", tests == 0)


def traced_run(wl, seed: int):
    from spans import RssSampler, Tracer, installed
    from workloads import Checks, Clock, check_matches_experiment, run_repetition, warm_up

    checks = Checks()
    warm_up(wl, seed, OUT_DIR)
    # Traced first: a fresh process is where a stage's resident-set growth shows.
    tracer = Tracer(f"{wl.name}:seed{seed}:rep0")
    with RssSampler() as memory:
        clock = Clock(tracer, memory)
        with installed(tracer):
            inputs = wl.make_inputs(seed, 0)
        wall_traced, out, rep_checks = run_repetition(wl, inputs, clock, OUT_DIR,
                                                      around=lambda: installed(tracer))
    checks.results += rep_checks.results
    wall_plain, plain, rep_checks = run_repetition(wl, wl.make_inputs(seed, 0), Clock(),
                                                   OUT_DIR)
    checks.results += rep_checks.results

    same = (plain["tll"] == out["tll"] and plain["model_bytes"] == out["model_bytes"]
            and plain.get("nmse") == out.get("nmse"))
    checks.check("traced run reproduces untraced outputs", same)
    call_pattern_checks(wl, tracer, out, checks)
    if wl.uses_mmd:
        check_matches_experiment(plain, seed, checks)
    metrics = per_layer_metrics(tracer, clock, out, wall_traced - wall_plain)
    check_repeats(wl.name, seed, "traced",
                  {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")},
                  checks)
    for key, (value, _) in metrics.items():
        checks.check(f"{key} finite", math.isfinite(value), repr(value))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({"env": environment(), **tracer.to_doc()}))
    extra = {"untraced_wall_s": (wall_plain, "s"), "traced_wall_s": (wall_traced, "s"),
             "spans": (len(tracer.spans), "count")}
    return metrics, extra, trace_path, checks


# -- reporting ----------------------------------------------------------------------

# Work counts derived from call arguments rather than measured.
COMPUTED = ("kernel_evals", "queries", "kernel_bytes", "pooled_rows", ".rows", "edges")


def _line(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<44} {shown:>14} {unit:<6}{note}"


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(f"vineshift benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"why: {wl.why}")
    print(f"stages: {wl.stages} (closed loop, one process)")
    if args.trace:
        metrics, extra, trace_path, checks = traced_run(wl, args.seed)
        print(f"per-layer metrics, traced repetition 0 (spans in {trace_path.relative_to(ROOT)}):")
    else:
        metrics, extra, spread, checks, reps = timed_run(wl, args.seed, args.seconds)
        print(f"end-to-end metrics, median of {reps} repetitions on the same inputs "
              f"(setup_s: of {SETUP_PROBES} fresh processes); times divided by the "
              f"host slowness the reference loops showed around each:")
    for key, (value, unit) in {**metrics, **extra}.items():
        note = ""
        if key.endswith(COMPUTED):
            note = "computed"
        elif not args.trace and key in spread:
            note = "all " + " ".join(f"{v:.4g}" for v in spread[key])
        print(_line(key, value, unit, note))
    failed = checks.failed
    print(_line("failed_ops", len(failed), "count", f"of {checks.attempted} checks"))
    for name, _, detail in failed:
        print(f"  FAILED: {name} {detail}")
    result = {"correct": not failed, "attempted": checks.attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory stay per workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    _load_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
