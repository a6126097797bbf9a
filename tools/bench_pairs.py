"""Alternating parent/change pairs of the benchmark, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent 2d9719d --label tiled_mixer \\
        --series desk-n10:0:10 --series landscape-n20:1:4 --claim landscape-n20:run_s

Each side is a `git archive` of its commit, unpacked at a path of the same
length as the other side's, because the benchmark's host-speed probe after
set-up follows the heap layout that set-up leaves, which moves with the
checkout's path. An archive leaves the repository's own `.git` untouched, so
a run that is killed leaves no checkout registered there. Every series runs
`bench/run.py --trace 0` for its workload and seed once per side in each
pair, one run at a time: odd pairs (numbered from 1) run the parent first,
even pairs the change. The record is rewritten after every run, so an
interrupted series keeps the runs it finished.

The summary gives, for each metric and series, the median and quartiles of
each side, the pairs the change won and tied, the median change in percent,
the parent's interquartile range and the gap between the medians (positive
when the change is better), and `identical`: true when every run of both
sides wrote the same output files with one sha256 each. A workload that
writes no file (bilinear-n14) instead runs its body once per side after its
series, in a fresh process with that side's `src/` and `bench/` first on
`sys.path`, and is identical when both sides' collected results, as sorted
JSON, have one sha256. `--claim WORKLOAD:METRIC` adds the verdict of the
pair rule: the change wins at least 9 of 10 pairs (or the same share), the
median gap exceeds the parent's interquartile range, and the change fails no
larger share of its operations and no more runs than the parent. `--traced
WORKLOAD` adds one traced run per side, whose per-layer metrics show where a
change acts. The change is HEAD; each run lasts `bench/run.py`'s own default
time.

Each run also records its set-up scale, scaled `setup_s` over unscaled: the
host-speed probe taken right after set-up. That probe has a fast mode that
follows the heap layout set-up leaves, so one side of a pair can read a
false `setup_s` change of about +90%. Each series records
`setup_probe_ratio`, the change's median scale over the parent's, and
`setup_probe_mode_differs` when that ratio is above 1.5 or below 1/1.5; the
summary printed at the end gives it beside the `setup_s` comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SERIES = ("desk-n10:0:10", "bilinear-n14:0:10", "landscape-n20:0:10")
# Metrics where a larger value is better; lower is better for the rest.
HIGHER = {"alpha_mean", "ok_ratio"}
# The lines run.py prints beside the JSON report's metrics.
PRINTED = ("setup_s unscaled", "run_s unscaled", "probe_s (host speed)")
METRICS = (
    "run_s",
    "run_s unscaled",
    "setup_s",
    "setup_s unscaled",
    "setup_scale",
    "probe_s (host speed)",
    "nfev",
    "alpha_mean",
    "peak_rss_mib",
    "ok_ratio",
)
# Output files a body leaves under .bench_run/<workload>/, hashed per run.
OUTPUTS = ("out/results.json", "table.csv", "landscape.csv")
# One body of a workload in a fresh process, printing the sha256 of its
# collected result as sorted JSON. argv: tree, workload, seed.
COLLECT = """
import hashlib, json, sys, tempfile
from pathlib import Path
tree, name, seed = sys.argv[1:]
sys.path[:0] = [f"{tree}/src", f"{tree}/bench"]
from workloads import WORKLOADS
wl = WORKLOADS[name].at_seed(int(seed))
with tempfile.TemporaryDirectory() as work:
    inputs = wl.prepare(Path(work))
    got = wl.collect(inputs, wl.body(inputs))
print(hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest())
"""
# A series' set-up probe ran in another mode on the two sides when the ratio
# of their median set-up scales leaves [1 / SETUP_PROBE_FLIP, SETUP_PROBE_FLIP].
SETUP_PROBE_FLIP = 1.5
# The thread pools bench/run.py pins for every measured process.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _unpack(rev: str, where: Path) -> None:
    where.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "results.json":
        # The one field that differs between runs of the same code.
        doc = json.loads(data)
        doc["meta"]["created_at"] = None
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _run(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    run = {"rc": proc.returncode, "wall_s": time.monotonic() - started}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        run["stderr"] = proc.stderr[-2000:]
        return run
    run["report"] = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine ") :])
        for name in PRINTED:
            match = re.match(rf"\s+{re.escape(name)}\s+(\S+)", line)
            if match:
                run[name] = float(match.group(1))
    scaled, unscaled = _value(run, "setup_s"), run.get("setup_s unscaled")
    if scaled is not None and unscaled:
        run["setup_scale"] = scaled / unscaled
    work = tree / ".bench_run" / workload
    run["outputs"] = {name: _digest(work / name) for name in OUTPUTS if (work / name).is_file()}
    return run


def _collected(tree: Path, workload: str, seed: int) -> dict:
    """The sha256 of `workload`'s collected result from one body run on `tree`."""
    proc = subprocess.run(
        [sys.executable, "-c", COLLECT, str(tree), workload, str(seed)],
        cwd=tree,
        env={**os.environ, **THREADS},
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"rc": 0, "outputs": {"collected": proc.stdout.strip()}}


def _value(run: dict, metric: str) -> float | None:
    if metric in run:
        return run[metric]
    entry = run.get("report", {}).get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _compare(pairs: list[tuple[dict, dict]], metric: str) -> dict | None:
    both = [(_value(p, metric), _value(c, metric)) for p, c in pairs]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    if not both:
        return None
    sign = 1.0 if metric in HIGHER else -1.0
    parent = _spread([p for p, _ in both])
    change = _spread([c for _, c in both])
    gap = sign * (change["median"] - parent["median"]) + 0.0  # no -0.0
    return {
        "parent": parent,
        "change": change,
        "pairs": len(both),
        "pairs_won_by_change": sum(sign * (c - p) > 0 for p, c in both),
        "pairs_tied": sum(c == p for p, c in both),
        "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0)
        if parent["median"]
        else None,
        "parent_iqr": parent["q3"] - parent["q1"],
        "median_gap": gap,
    }


def _identity(runs: list[dict]) -> dict:
    """The distinct sha256 of each output file over `runs`."""
    seen = {}
    for run in runs:
        for name, digest in run.get("outputs", {}).items():
            seen.setdefault(name, set()).add(digest)
    return {name: sorted(digests) for name, digests in seen.items()}


def _identical(runs: list[dict]) -> bool | None:
    """Whether every run wrote the same output files, each with one sha256;
    None when no run wrote any."""
    outputs = [run.get("outputs", {}) for run in runs]
    if not any(outputs):
        return None
    return all(o == outputs[0] for o in outputs)


def _summary(runs: list[dict], collected: list[dict]) -> list[dict]:
    series = {}
    for run in runs:
        pair = series.setdefault((run["workload"], run["seed"]), {}).setdefault(run["pair"], {})
        pair[run["side"]] = run
    summary = []
    for (workload, seed), by_pair in series.items():
        pairs = [(p["parent"], p["change"]) for p in by_pair.values() if len(p) == 2]
        metrics = {m: _compare(pairs, m) for m in METRICS}
        sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
        bodies = {
            side: [c for c in collected if (c["workload"], c["seed"], c["side"]) == (workload, seed, side)]
            for side in sides
        }
        # A workload that writes no file is compared by its collected results.
        outputs = sides if any(r.get("outputs") for rs in sides.values() for r in rs) else bodies
        operations = {
            side: {
                "attempted": sum(r.get("report", {}).get("attempted", 0) for r in rs),
                "failed": sum(r.get("report", {}).get("failed", 0) for r in rs),
                "runs_failed": sum(r["rc"] != 0 for r in rs),
            }
            for side, rs in sides.items()
        }
        scale = metrics["setup_scale"]
        ratio = scale and scale["change"]["median"] / scale["parent"]["median"]
        summary.append(
            {
                "workload": workload,
                "seed": seed,
                "pairs": len(pairs),
                "metrics": {m: v for m, v in metrics.items() if v is not None},
                "operations": operations,
                "identity": {side: _identity(rs) for side, rs in outputs.items()},
                "identical": _identical(outputs["parent"] + outputs["change"]),
                "setup_probe_ratio": ratio,
                "setup_probe_mode_differs": None
                if ratio is None
                else not 1 / SETUP_PROBE_FLIP <= ratio <= SETUP_PROBE_FLIP,
            }
        )
    return summary


def _setup_lines(summary: list[dict]) -> list[str]:
    """Per series, the `setup_s` comparison, scaled and unscaled, beside the
    set-up probe's ratio and flag."""
    lines = []
    for entry in summary:
        parts = []
        for metric in ("setup_s", "setup_s unscaled"):
            m = entry["metrics"].get(metric)
            if m:
                parts.append(
                    f"{metric} {m['parent']['median']:.3f} -> {m['change']['median']:.3f} s "
                    f"({m['median_change_pct']:+.1f}%, won {m['pairs_won_by_change']}/{m['pairs']})"
                )
        if entry["setup_probe_ratio"] is not None:
            flag = " MODE DIFFERS" if entry["setup_probe_mode_differs"] else ""
            parts.append(f"setup probe ratio {entry['setup_probe_ratio']:.2f}{flag}")
        lines.append(f"{entry['workload']} seed {entry['seed']}: " + "; ".join(parts))
    return lines


def _verdict(summary: list[dict], claim: str) -> dict:
    workload, metric = claim.split(":")
    result = {"workload": workload, "metric": metric, "series": []}
    for entry in summary:
        if entry["workload"] != workload or metric not in entry["metrics"]:
            continue
        m = entry["metrics"][metric]
        ops = entry["operations"]
        wins = m["pairs_won_by_change"] >= 0.9 * m["pairs"]
        share = {
            side: ops[side]["failed"] / ops[side]["attempted"] if ops[side]["attempted"] else 0.0
            for side in ops
        }
        fails_no_more = (
            share["change"] <= share["parent"]
            and ops["change"]["runs_failed"] <= ops["parent"]["runs_failed"]
        )
        result["series"].append(
            {
                "seed": entry["seed"],
                "pairs_won_by_change": m["pairs_won_by_change"],
                "pairs": m["pairs"],
                "median_gap": m["median_gap"],
                "parent_iqr": m["parent_iqr"],
                "failed": {side: ops[side]["failed"] for side in ops},
                "runs_failed": {side: ops[side]["runs_failed"] for side in ops},
                "met": wins and m["median_gap"] > m["parent_iqr"] and fails_no_more,
            }
        )
    return result


def _write(out: Path, record: dict, claims: list[str]) -> None:
    record["summary"] = _summary(record["runs"], record["collected"])
    if claims:
        record["claim_result"] = [_verdict(record["summary"], c) for c in claims]
    out.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    parser.add_argument("--text", help="what the change does (default: its commit subject)")
    parser.add_argument(
        "--series",
        action="append",
        metavar="WORKLOAD:SEED:PAIRS",
        help=f"repeatable; default {' '.join(DEFAULT_SERIES)}",
    )
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument(
        "--traced",
        action="append",
        default=[],
        metavar="WORKLOAD",
        help="after the pairs, one --trace 1 run per side at seed 0, under 'traced'",
    )
    args = parser.parse_args(argv)
    series = []
    for spec in args.series or DEFAULT_SERIES:
        workload, seed, pairs = spec.split(":")
        series.append((workload, int(seed), int(pairs)))
    revs = {"parent": _git("rev-parse", "--short", args.parent)}
    revs["change"] = _git("rev-parse", "--short", "HEAD")
    same_bench = not _git("diff", "--stat", revs["parent"], revs["change"], "--", "bench")
    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "change": args.text or _git("log", "-1", "--format=%s", revs["change"]),
        "command": "python3 bench/run.py --workload <workload> --seed <seed> --trace 0",
        "protocol": (
            "tools/bench_pairs.py: alternating pairs, odd pairs (numbered from 1) run the "
            "parent first, even pairs the change; each side runs bench/run.py from a git "
            "archive of its commit at a path of equal length, one run at a time; series "
            + ", ".join(f"{w} seed {s} x{p}" for w, s, p in series)
            + "; quartiles by statistics.quantiles(method='inclusive'); higher is better for "
            "alpha_mean and ok_ratio, lower for the rest; median_gap is positive when the "
            "change is better; parent_iqr is q3 - q1 of the parent's runs; a claim is met "
            "only if the change also fails no larger share of operations and no more runs "
            "than the parent; identity lists "
            "the distinct sha256 of each output file over a side's runs, results.json with "
            "meta.created_at blanked; identical is true when every run of both sides wrote "
            "the same files with one sha256 each; a workload that writes no file runs its body "
            "once per side after its series, in a fresh process with that side's src/ and bench/ "
            "first on sys.path, and is compared by the sha256 of its collected result as sorted "
            "JSON under 'collected'; bench/ is "
            + ("the same on both sides" if same_bench else "NOT the same on both sides")
        ),
        "parent": revs["parent"],
        "change_commit": revs["change"],
        "machine": None,
        "summary": [],
        "runs": [],
        "collected": [],
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: scratch / side[0] for side in revs}
        for side, tree in trees.items():
            _unpack(revs[side], tree)
        for workload, seed, pairs in series:
            for pair in range(1, pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seed)
                    machine = run.pop("machine", None)
                    record["machine"] = record["machine"] or machine
                    record["runs"].append(
                        {"side": side, "workload": workload, "seed": seed, "pair": pair, **run}
                    )
                    print(
                        f"{workload} seed {seed} pair {pair} {side}: rc {run['rc']} "
                        f"run_s {_value(run, 'run_s')} setup_s {_value(run, 'setup_s')}",
                        flush=True,
                    )
                    _write(out, record, args.claim)
            ran = [r for r in record["runs"] if (r["workload"], r["seed"]) == (workload, seed)]
            if not any(r.get("outputs") for r in ran):
                for side in revs:
                    body = _collected(trees[side], workload, seed)
                    record["collected"].append({"side": side, "workload": workload, "seed": seed, **body})
                    print(f"{workload} seed {seed} collected {side}: rc {body['rc']}", flush=True)
                _write(out, record, args.claim)
        for workload in args.traced:
            for side in revs:
                run = _run(trees[side], workload, 0, trace=1)
                layers = run.get("report", {}).get("metrics", {})
                record.setdefault("traced", {}).setdefault(workload, {})[side] = {
                    name: entry["value"] for name, entry in layers.items()
                } or run
                print(f"{workload} traced {side}: rc {run['rc']}", flush=True)
                out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in _setup_lines(record["summary"]):
        print(line)
    print(f"wrote {out}")
    return 0 if all(r["rc"] == 0 for r in record["runs"] + record["collected"]) else 1


if __name__ == "__main__":
    sys.exit(main())
