"""The benchmark's workloads: inputs made from a seed, set-up, the timed body,
and the checks of the program's outputs.

The seed changes the inputs but not the work they take: each workload's
instance is replaced by an isomorphic copy. bilinear-n14 and landscape-n20
relabel the vertices of their instance with a permutation drawn from the
seed. desk-n10 reaches the CLI through a config, which can only name a
generator seed, so it draws generator seeds from the seed until one yields a
graph isomorphic to reg3-n10-s7. An isomorphic graph has the same
landscape, so nfev and every alpha repeat on every seed and the stored
reference holds on every seed. Seed 0 is the instance itself.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qaoa_maxcut
import qaoa_maxcut.cli
import oracle
from qaoa_maxcut import Graph, gen_erdos_renyi, gen_random_regular

# Stored outputs of the named workloads at seed 0; other variants have none.
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Optimized alpha against the stored reference: roundoff in the simulator can
# move the L-BFGS-B path, which converges to ftol 1e-9 relative.
ALPHA_TOLERANCE = 1e-6
# Forward evaluations (f_star of a record, landscape points) against the oracles.
FORWARD_TOLERANCE = 1e-9
# Angles may sit on the box boundary.
BOX_TOLERANCE = 1e-12
# desk-n10 finds an isomorphic instance in about 1 of 9 generator seeds.
ISOMORPH_TRIES = 10_000


def relabel(g: Graph, seed: int) -> Graph:
    """`g` with its vertices permuted by a permutation drawn from `seed`;
    seed 0 is the identity."""
    if seed == 0:
        return g
    perm = np.random.default_rng(seed).permutation(g.n)
    return Graph(n=g.n, edges=tuple((int(perm[u]), int(perm[v])) for u, v in g.edges))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact test: backtracking over vertex maps in breadth-first order of g,
    keeping adjacency consistent at each step (quick at n = 10)."""
    if g.n != h.n or g.m != h.m:
        return False
    adj_g = [set() for _ in range(g.n)]
    adj_h = [set() for _ in range(h.n)]
    for adj, graph in ((adj_g, g), (adj_h, h)):
        for u, v in graph.edges:
            adj[u].add(v)
            adj[v].add(u)
    order: list[int] = []
    for root in range(g.n):
        if root not in order:
            queue = [root]
            while queue:
                v = queue.pop(0)
                if v not in order:
                    order.append(v)
                    queue += sorted(adj_g[v])
    mapping: dict[int, int] = {}

    def extend(k: int) -> bool:
        if k == g.n:
            return True
        v = order[k]
        for w in range(h.n):
            if w in mapping.values() or len(adj_h[w]) != len(adj_g[v]):
                continue
            if all((mapping[u] in adj_h[w]) == (u in adj_g[v]) for u in mapping):
                mapping[v] = w
                if extend(k + 1):
                    return True
                del mapping[v]
        return False

    return extend(0)


@dataclass
class Outcome:
    """Operations attempted and failed by one body, with its cost figures."""

    attempted: int = 0
    failed: int = 0
    nfev: int = 0
    alphas: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def merge(self, other: Outcome) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _check_records(
    out: Outcome,
    g: Graph,
    rows: list[dict],
    expected: list[tuple[str, int]],
    reference: dict | None,
    flagged: frozenset = frozenset(),
) -> None:
    """One operation per expected (strategy, depth) record.

    A record passes when it exists, its angles lie in the search box, f_star
    equals an independent simulation of its angles, alpha = f_star / C* with C*
    by enumeration, nfev >= 1, and (where a reference applies) alpha matches it.
    Keys in `flagged` fail: their row in the alpha table disagrees.
    """
    c_max = oracle.max_cut(g.n, g.edges)
    box = qaoa_maxcut.bounds_for_graph(qaoa_maxcut.classify(g))
    by_key = {(r["strategy"], r["depth"]): r for r in rows}
    for strategy, depth in expected:
        key = f"{strategy}/{depth}"
        row = by_key.get((strategy, depth))
        if row is None:
            out.check(False, f"{key}: missing")
            continue
        gammas, betas = row["gammas"], row["betas"]
        f = oracle.expectation(g.n, g.edges, gammas, betas)
        problems = ["alpha table row disagrees"] if (strategy, depth) in flagged else []
        if not (len(gammas) == len(betas) == depth):
            problems.append("depth")
        if not all(box.gamma_min - BOX_TOLERANCE <= x <= box.gamma_max + BOX_TOLERANCE for x in gammas):
            problems.append("gamma outside box")
        if not all(box.beta_min - BOX_TOLERANCE <= x <= box.beta_max + BOX_TOLERANCE for x in betas):
            problems.append("beta outside box")
        if abs(row["f_star"] - f) > FORWARD_TOLERANCE:
            problems.append(f"f_star {row['f_star']!r} != oracle {f!r}")
        if abs(row["alpha"] - row["f_star"] / c_max) > BOX_TOLERANCE:
            problems.append("alpha != f_star / C*")
        if not (isinstance(row["nfev"], int) and row["nfev"] >= 1):
            problems.append("nfev")
        if reference is not None and abs(row["alpha"] - reference[key]) > ALPHA_TOLERANCE:
            problems.append(f"alpha {row['alpha']!r} != reference {reference[key]!r}")
        out.check(not problems, f"{key}: {', '.join(problems)}")
        out.nfev += row["nfev"]
        out.alphas.append(row["alpha"])


@dataclass(frozen=True)
class Desk:
    """`qaoa-maxcut run` then `qaoa-maxcut table` on a JSON config, in process."""

    name: str = "desk-n10"
    n: int = 10
    instance_seed: int = 7
    strategies: tuple[str, ...] = ("bilinear", "layerwise")
    max_depth: int = 8
    trials: int = 20
    rng_seed: int = 11
    symmetry_samples: int = 100

    def at_seed(self, seed: int) -> Desk:
        if seed == 0:
            return self
        base = gen_random_regular(self.n, 3, self.instance_seed)
        draws = np.random.default_rng(seed).integers(2**31 - 1, size=ISOMORPH_TRIES)
        for candidate in map(int, draws):
            if isomorphic(base, gen_random_regular(self.n, 3, candidate)):
                return dataclasses.replace(self, instance_seed=candidate)
        raise RuntimeError(f"no instance isomorphic to {self.name}'s in {ISOMORPH_TRIES} draws")

    def graph(self) -> Graph:
        return gen_random_regular(self.n, 3, self.instance_seed)

    def prepare(self, work: Path) -> dict:
        config = {
            "instances": [{"kind": "regular", "n": self.n, "degree": 3, "seed": self.instance_seed}],
            "strategies": list(self.strategies),
            "max_depth": self.max_depth,
            "trials": self.trials,
            "rng_seed": self.rng_seed,
            "symmetry_samples": self.symmetry_samples,
        }
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return {"config": str(path), "out": str(work / "out"), "table": str(work / "table.csv")}

    def body(self, inputs: dict) -> list[int]:
        cli = qaoa_maxcut.cli
        return [
            cli.main(["run", "--config", inputs["config"], "--out", inputs["out"]]),
            cli.main(["table", "--results", f"{inputs['out']}/results.json", "--out", inputs["table"]]),
        ]

    def collect(self, inputs: dict, returned: list[int] | None) -> dict:
        if returned != [0, 0]:
            return {"exit_codes": returned}
        with open(inputs["table"], newline="") as fh:
            table = list(csv.DictReader(fh))
        return {
            "exit_codes": returned,
            "results": json.loads(Path(inputs["out"], "results.json").read_text()),
            "table": table,
        }

    def check(self, got: dict) -> Outcome:
        out = Outcome()
        expected = [(s, p) for s in self.strategies for p in range(1, self.max_depth + 1)]
        if got["exit_codes"] != [0, 0]:
            for _ in range(len(expected) + 6):
                out.check(False, f"cli exit codes {got['exit_codes']}")
            return out
        rows = got["results"]["records"]
        # The table must carry each record's alpha and its running nfev total.
        running: dict[str, int] = {}
        table = {(t["strategy"], int(t["p"])): t for t in got["table"]}
        flagged = set()
        for row in sorted(rows, key=lambda r: (r["strategy"], r["depth"])):
            key = (row["strategy"], row["depth"])
            running[key[0]] = running.get(key[0], 0) + row["nfev"]
            t = table.get(key)
            if t is None or float(t["alpha"]) != row["alpha"] or int(t["nfev_cumulative"]) != running[key[0]]:
                flagged.add(key)
        reference = REFERENCE.get(self.name)
        _check_records(out, self.graph(), rows, expected, reference, frozenset(flagged))
        reports = {r["transform"]: r for r in got["results"]["symmetry_reports"]}
        for transform in (
            "angle_reversal",
            "periodicity_full",
            "periodicity_masked",
            "general_point_symmetry",
            "even_regular",
            "odd_regular",
        ):
            r = reports.get(transform)
            out.check(
                r is not None
                and r["samples"] == self.symmetry_samples
                and r["max_abs_deviation"] <= qaoa_maxcut.symmetry.DEVIATION_TOLERANCE,
                f"symmetry {transform}: {r}",
            )
        return out


@dataclass(frozen=True)
class Bilinear:
    """`run_bilinear` called as a library user would, on a relabelled G(n, 1/2)."""

    name: str = "bilinear-n14"
    n: int = 14
    instance_seed: int = 5
    max_depth: int = 6
    trials: int = 4
    rng_seed: int = 11
    relabel_seed: int = 0

    def at_seed(self, seed: int) -> Bilinear:
        return dataclasses.replace(self, relabel_seed=seed)

    def graph(self) -> Graph:
        return relabel(gen_erdos_renyi(self.n, 0.5, self.instance_seed), self.relabel_seed)

    def prepare(self, work: Path) -> dict:
        g = self.graph()
        cfg = qaoa_maxcut.StrategyConfig(
            max_depth=self.max_depth,
            bounds=qaoa_maxcut.bounds_for_graph(qaoa_maxcut.classify(g)),
            trials=self.trials,
            rng_seed=self.rng_seed,
        )
        return {"graph": g, "config": cfg}

    def body(self, inputs: dict):
        return qaoa_maxcut.run_bilinear(inputs["graph"], inputs["config"])

    def collect(self, inputs: dict, returned) -> dict:
        if returned is None:
            return {"records": []}
        rows = [
            {
                "strategy": r.strategy,
                "depth": r.depth,
                "gammas": list(r.phi_star.gammas),
                "betas": list(r.phi_star.betas),
                "f_star": r.f_star,
                "alpha": r.alpha,
                "nfev": r.nfev_total,
            }
            for r in returned
        ]
        return {"records": rows}

    def check(self, got: dict) -> Outcome:
        out = Outcome()
        expected = [("bilinear", p) for p in range(1, self.max_depth + 1)]
        reference = REFERENCE.get(self.name)
        _check_records(out, self.graph(), got["records"], expected, reference)
        return out


@dataclass(frozen=True)
class Landscape:
    """`qaoa-maxcut landscape --edges` on a relabelled 3-regular graph, in process."""

    name: str = "landscape-n20"
    n: int = 20
    instance_seed: int = 7
    resolution: int = 8
    relabel_seed: int = 0

    def at_seed(self, seed: int) -> Landscape:
        return dataclasses.replace(self, relabel_seed=seed)

    def graph(self) -> Graph:
        return relabel(gen_random_regular(self.n, 3, self.instance_seed), self.relabel_seed)

    def prepare(self, work: Path) -> dict:
        path = work / "graph.edges"
        qaoa_maxcut.write_edge_list(self.graph(), path)
        return {"edges": str(path), "out": str(work / "landscape.csv")}

    def body(self, inputs: dict) -> int:
        return qaoa_maxcut.cli.main(
            ["landscape", "--edges", inputs["edges"], "--resolution", str(self.resolution), "--out", inputs["out"]]
        )

    def collect(self, inputs: dict, returned: int | None) -> dict:
        if returned != 0:
            return {"exit_code": returned}
        with open(inputs["out"], newline="") as fh:
            return {"exit_code": returned, "rows": list(csv.DictReader(fh))}

    def check(self, got: dict) -> Outcome:
        """One operation per grid point: the point exists at its grid angles and
        its alpha matches the depth-1 closed form and the stored reference."""
        out = Outcome()
        rows = got.get("rows", [])
        g = self.graph()
        c_max = oracle.max_cut(g.n, g.edges)
        reference = REFERENCE.get(self.name)
        for k in range(self.resolution**2):
            i, j = divmod(k, self.resolution)
            gamma, beta = 2.0 * math.pi * i / self.resolution, math.pi * j / self.resolution
            if k >= len(rows):
                out.check(False, f"point {k}: missing")
                continue
            row = rows[k]
            alpha = float(row["alpha"])
            expected = oracle.depth_one(g.n, g.edges, gamma, beta) / c_max
            ok = (
                float(row["gamma"]) == gamma
                and float(row["beta"]) == beta
                and abs(alpha - expected) <= FORWARD_TOLERANCE
                and (reference is None or abs(alpha - reference[k]) <= FORWARD_TOLERANCE)
            )
            out.check(ok, f"point {k}: alpha {alpha!r}, closed form {expected!r}")
            out.nfev += 1
            out.alphas.append(alpha)
        return out


WORKLOADS = {w.name: w for w in (Desk(), Bilinear(), Landscape())}


def setup(workload) -> None:
    """What a user pays before the first result: the graph, one evaluator
    (its cut table) and the exact Max-Cut."""
    g = workload.graph()
    qaoa_maxcut.ExpectationEvaluator(g)
    qaoa_maxcut.max_cut_brute_force(g)
