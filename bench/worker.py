"""One fresh benchmark process, started by run.py with BLAS pinned to one thread.

    worker.py setup --workload W --seed S --out FILE
        imports the library and does the workload's set-up; reports its wall
        time from the start of this script and five probes taken right after.
    worker.py body --workload W --seed S --seconds T --out FILE [--trace]
        sets up, then repeats the workload body while the next repetition is
        expected to end within T seconds (at least once), and checks every
        repetition's outputs. With --trace it runs the body once without and
        once under the tracer instead, and reports the per-layer metrics.

While a body runs, a timer signal interrupts it every half second to run a
probe: about 13 ms of complex-array arithmetic and interpreter work that
never touches the library. The shared host's speed drifts by up to a
quarter within a run and the probes drift with it, so a time divided by the
mean probe time near it keeps the program's cost and sheds most of the
host's drift. run.py reports times scaled that way.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

PROBE_ROUNDS = 150
PROBE_PERIOD_S = 0.5


def _probe() -> float:
    import numpy as np

    start = perf_counter()
    turn = np.exp(0.001j)
    large = np.full(1 << 14, 0.5 + 0.5j)
    small = np.full(1 << 10, 0.5 + 0.5j)
    for _ in range(PROBE_ROUNDS):
        large = large * turn
        half = large.reshape(-1, 2, 64)[:, 0, :].copy()
        float((large.real**2 + large.imag**2).sum() + half[0, 0].real)
        for _ in range(4):
            small = small * turn
            part = small.reshape(-1, 2, 8)[:, 1, :].copy()
            float(small.real.sum() + part[0, 0].imag)
        sum(k * 0.5 for k in range(40))
    return perf_counter() - start


class _Probing:
    """Runs the probe every PROBE_PERIOD_S seconds, from SIGALRM, while active."""

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _body(wl, inputs: dict):
    """The body's return value, or None when the library raised: a failing
    body counts as failed operations, not as a broken benchmark."""
    try:
        return wl.body(inputs)
    except Exception:
        traceback.print_exc()
        return None


def _probed(run):
    """(result, wall seconds less the probes' time, probe times) of `run()`."""
    with _Probing() as probes:
        t = perf_counter()
        result = run()
    elapsed = perf_counter() - t - sum(probes.samples)
    return result, elapsed, probes.samples or [_probe()]


def _untraced(wl, inputs: dict, seconds: float) -> dict:
    times, probes, collected = [], [], []
    while not times or sum(times) + times[-1] <= seconds:
        returned, elapsed, samples = _probed(lambda: _body(wl, inputs))
        times.append(elapsed)
        probes.append(samples)
        collected.append(wl.collect(inputs, returned))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = wl.check(collected[0])
    for k, got in enumerate(collected[1:], start=2):
        again = wl.check(got)
        outcome.merge(again)
        outcome.check(
            (again.nfev, again.alphas) == (outcome.nfev, outcome.alphas),
            f"repetition {k} differs from the first",
        )
    return {
        "run_s": times,
        "run_probes_s": probes,
        "nfev": outcome.nfev,
        "alpha_mean": sum(outcome.alphas) / len(outcome.alphas) if outcome.alphas else 0.0,
        "peak_rss_mib": peak_rss_mib,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
    }


def _traced(wl, inputs: dict, work: Path) -> dict:
    """One untraced body, then one traced body, in this process.

    The traced body runs no probes, so no span holds probe time. Each body is
    instead scaled by the median of five probes on either side of it, and
    `trace.overhead_ratio` compares the two scaled times.
    """
    import qaoa_maxcut
    from tracing import Tracer, layer_metrics

    def host_speed() -> float:
        return sorted(_probe() for _ in range(5))[2]

    speeds = [host_speed()]
    t = perf_counter()
    plain = wl.collect(inputs, _body(wl, inputs))
    plain_s = perf_counter() - t
    speeds.append(host_speed())
    tracer = Tracer(qaoa_maxcut)
    with tracer.installed(), tracer.span("bench.body"):
        returned = _body(wl, inputs)
    speeds.append(host_speed())
    outcome = wl.check(wl.collect(inputs, returned))
    outcome.merge(wl.check(plain))
    layers = layer_metrics(tracer)
    layers["trace.overhead_ratio"] = (layers["trace.run_s"] / (speeds[1] + speeds[2])) / (
        plain_s / (speeds[0] + speeds[1])
    )
    tracer.write(work / "spans.json")
    # The objective calls the trace counts must equal the nfev the program
    # reports: under the optimizer when it ran, else every expectation call.
    counted = layers["optimize.nfev"] if layers["optimize.calls"] else layers["simulator.expectation.calls"]
    outcome.check(counted == outcome.nfev, f"traced objective calls {counted} != reported nfev {outcome.nfev}")
    return {
        "layers": layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "body"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import workloads

    # Choosing the seed's input is the benchmark's work, not set-up.
    choosing = perf_counter()
    wl = workloads.WORKLOADS[args.workload].at_seed(args.seed)
    choosing = perf_counter() - choosing
    workloads.setup(wl)
    result = {
        "setup_s": perf_counter() - START - choosing,
        "setup_probes_s": [_probe() for _ in range(5)],
    }
    if args.mode == "body":
        import numpy
        import scipy

        work = Path(args.out).parent
        inputs = wl.prepare(work)
        if args.trace:
            result.update(_traced(wl, inputs, work))
        else:
            result.update(_untraced(wl, inputs, args.seconds))
        result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
