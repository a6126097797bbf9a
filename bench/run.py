"""Benchmark of the qaoa_maxcut library and CLI, one workload per call.

    python3 bench/run.py --workload desk-n10 --seed 0 --seconds 20 --trace 0

Every measurement runs in fresh processes with OpenBLAS and OpenMP pinned to
one thread. With --trace 0 it reports the end-to-end metrics: set-up time
(median of several fresh processes), body time, nfev, mean alpha, peak RSS
and the share of operations whose outputs check out. Both times are scaled
to a reference host speed by probes run in the same process (see worker.py);
the unscaled times are printed beside them. With --trace 1 it runs one
untraced and one traced body in one process and reports the per-layer
metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
Run it from anywhere: paths are taken relative to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
WORKLOADS = ("desk-n10", "bilinear-n14", "landscape-n20")
SETUP_RUNS = 5
# The probe's typical wall time on the machine in NOTES.md. A time t measured
# while probes took p on average is reported as t * PROBE_NOMINAL_S / p.
PROBE_NOMINAL_S = 0.013
# Every run must end within 180 s; leave room for start-up and reporting.
DEADLINE_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "nfev": "count",
    "alpha_mean": "ratio",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _scaled(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_NOMINAL_S / probe_s


def _cache_sizes() -> dict[str, str]:
    """L1d/L2/L3 sizes of cpu0 as the kernel reports them, where it does."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = perf_counter()
        self.children = 0

    def child(self, mode: str, *extra: str) -> dict:
        self.children += 1
        out = self.work / f"{mode}-{self.children}.json"
        command = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", self.workload]
        command += ["--seed", str(self.seed), "--out", str(out), *extra]
        remaining = DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise ChildFailed(f"out of time before the {mode} process")
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env={**os.environ, **THREADS},
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "qaoa_maxcut" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'qaoa_maxcut'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    seconds = ["--seconds", str(args.seconds)]
    try:
        if args.trace:
            traced = runner.child("body", "--trace")
            metrics = traced["layers"]
            attempted, failed, problems = traced["attempted"], traced["failed"], traced["problems"]
            versions = traced["versions"]
        else:
            setups = [runner.child("setup") for _ in range(SETUP_RUNS)]
            base = runner.child("body", *seconds)
            attempted, failed, problems = base["attempted"], base["failed"], base["problems"]
            metrics = {
                "setup_s": statistics.median(
                    _scaled(s["setup_s"], statistics.median(s["setup_probes_s"])) for s in setups
                ),
                "run_s": statistics.median(map(_scaled, base["run_s"], map(_mean, base["run_probes_s"]))),
                "nfev": base["nfev"],
                "alpha_mean": base["alpha_mean"],
                "peak_rss_mib": base["peak_rss_mib"],
                "ok_ratio": 1.0 - failed / attempted,
            }
            versions = base["versions"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        **THREADS,
        **versions,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        unscaled = statistics.median(s["setup_s"] for s in setups)
        print(f"  {'setup_s unscaled':34s} {unscaled:>16.6g} s")
        print(f"  {'run_s unscaled':34s} {statistics.median(base['run_s']):>16.6g} s")
        probes = [p for samples in base["run_probes_s"] for p in samples]
        print(f"  {'probe_s (host speed)':34s} {statistics.median(probes):>16.6g} s")
    print(f"  {'failed_ratio':34s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"  FAILED {problem}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
