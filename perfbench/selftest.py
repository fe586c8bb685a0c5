"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For the default seed and a second seed, runs every workload of
BENCHMARK.json untraced (one repetition) and traced, and fails unless
each run passes every correctness gate and call-pattern check and
reports exactly the metrics BENCHMARK.json names. Then copies
BENCHMARK.json and the benchmark into a directory without the package
and checks that the runner refuses to run there: a non-zero exit code
and no result line. Takes about two minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = (0, 1)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def _run(spec, cwd, *args):
    return subprocess.run([*spec["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for seed in SEEDS:
        for trace in (0, 1):
            for wl in spec["workloads"]:
                label = f"{wl['name']} seed={seed} trace={trace}"
                proc = _run(spec, ROOT, "--workload", wl["name"], "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace))
                result = _result(proc)
                if proc.returncode != 0 or result is None or not result["correct"]:
                    failed = [ln for ln in proc.stdout.splitlines() if "FAILED" in ln]
                    problems.append(f"{label}: exit {proc.returncode} {failed} {proc.stderr[-500:]}")
                    continue
                if set(result["metrics"]) != wanted[trace]:
                    problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(result['metrics']) ^ wanted[trace])}")
                print(f"ok   {label}: {result['attempted']} checks", flush=True)

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out"))
        wl = spec["workloads"][0]["name"]
        proc = _run(spec, bare, "--workload", wl, "--seed", "0", "--seconds", "1",
                    "--trace", "0")
        if proc.returncode == 0 or _result(proc) is not None:
            problems.append("runs without the package sources")
        else:
            print(f"ok   refuses to run without the package: {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
