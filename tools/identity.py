"""The identity corpus: one sha256 per case over what the program computes.

    PYTHONPATH=src python3 tools/identity.py

Each case runs `run_bilinear`, or `run_experiment` on the desk-n10 config,
on a path of the simulator that the other pins in `tests/` never optimize
through: scalar mixer runs at n = 10, per-row coefficients and two probe
lanes at n = 14 and 16, row tiles from n = 17 and the split layer at
n = 18. A `run_bilinear` case hashes each record's depth, `f_star.hex()`,
nfev and the hex of its angles; the desk case hashes the sorted JSON of its
results file with `meta.created_at` blanked. Every case runs with the
simulator's CPU count forced to 1 and to 2, which must give one digest.
`tests/test_identity.py` pins the digests this prints, so a change that
moves any value by one bit on any of these paths fails there.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from qaoa_maxcut import simulator  # noqa: E402
from qaoa_maxcut.experiment import ExperimentConfig, InstanceSpec, run_experiment  # noqa: E402
from qaoa_maxcut.graphs import classify, gen_erdos_renyi, gen_random_regular  # noqa: E402
from qaoa_maxcut.optimize import bounds_for_graph  # noqa: E402
from qaoa_maxcut.strategies import StrategyConfig, run_bilinear  # noqa: E402

# (n, max_depth, trials) of the run_bilinear cases: on G(n, 1/2) drawn with
# seed n to n = 14, and from n = 16 on a random regular graph drawn with
# seed 7, of degree 3, or 4 at odd n, where G(n, 1/2) would take seconds.
# From n = 16 one trial of two stops on the zero corner.
BILINEAR = ((10, 4, 3), (14, 3, 2), (16, 2, 2), (17, 2, 2), (18, 2, 2))
# desk-n10's config: bilinear and layerwise to depth 8 on reg3-n10-s7, with
# the symmetry suite.
DESK = ExperimentConfig(
    instances=(InstanceSpec(kind="regular", n=10, seed=7, degree=3),),
    strategies=("bilinear", "layerwise"),
    max_depth=8,
    trials=20,
    rng_seed=11,
    symmetry_samples=100,
)
CASES = tuple(f"bilinear-n{n}" for n, _, _ in BILINEAR) + ("desk-n10",)


def _bilinear(n: int, max_depth: int, trials: int) -> str:
    g = gen_erdos_renyi(n, 0.5, n) if n < 16 else gen_random_regular(n, 3 + n % 2, 7)
    cfg = StrategyConfig(max_depth=max_depth, bounds=bounds_for_graph(classify(g)), trials=trials)
    h = hashlib.sha256()
    for r in run_bilinear(g, cfg):
        angles = ",".join(x.hex() for x in r.phi_star.gammas + r.phi_star.betas)
        h.update(f"{r.depth}:{r.f_star.hex()}:{r.nfev_total}:{angles};".encode())
    return h.hexdigest()


def _desk() -> str:
    doc = json.loads(run_experiment(DESK).to_json())
    doc["meta"]["created_at"] = None
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@contextmanager
def cpus(count: int):
    """The simulator sees `count` CPUs inside the block."""
    saved = simulator._cpus
    simulator._cpus = lambda: count
    try:
        yield
    finally:
        simulator._cpus = saved


def digest(case: str) -> str:
    """The sha256 of `case`, one of CASES, on the simulator as it is set up."""
    if case == "desk-n10":
        return _desk()
    n = int(case.removeprefix("bilinear-n"))
    return _bilinear(*next(spec for spec in BILINEAR if spec[0] == n))


def main() -> int:
    for case in CASES:
        got = {count: None for count in (1, 2)}
        for count in got:
            with cpus(count):
                got[count] = digest(case)
        if got[1] != got[2]:
            print(f"{case}: 1 CPU {got[1]} != 2 CPUs {got[2]}")
            return 1
        print(f"{case} {got[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
