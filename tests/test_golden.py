"""Pinned outputs of every depth-progressive runner on one small instance.

The values were recorded before the runners were moved onto a shared depth
loop; any change to start order, tie-breaking, nfev accounting or the
optimizer path shows up here as a changed bit. f_star and angles are
compared through float.hex, so the match is exact.
"""

import pytest

from qaoa_maxcut.graphs import classify, gen_random_regular
from qaoa_maxcut.optimize import bounds_for_graph
from qaoa_maxcut.strategies import STRATEGIES, StrategyConfig, base_exhaustion
from qaoa_maxcut.symmetry import non_adiabatic_progression

G = gen_random_regular(8, 3, 2)
CFG = StrategyConfig(max_depth=4, bounds=bounds_for_graph(classify(G)), trials=3, rng_seed=5)

# Per strategy, one (f_star.hex(), nfev_total, converged) per depth 1..4.
GOLDEN = {
    "bilinear": [
        ("0x1.f0a72980a1108p+2", 50, True),
        ("0x1.0d6830a91a30ep+3", 387, True),
        ("0x1.202f0c368b83cp+3", 325, True),
        ("0x1.2fa3c6aa94396p+3", 289, True),
    ],
    "parameters_fixing": [
        ("0x1.f0a72980a1108p+2", 50, True),
        ("0x1.0d6830a91a6f3p+3", 225, True),
        ("0x1.202f0c369336bp+3", 442, True),
        ("0x1.2fa3c6aa5797ep+3", 799, True),
    ],
    "layerwise": [
        ("0x1.f0a72980a1108p+2", 50, True),
        ("0x1.0d01b258296c8p+3", 110, True),
        ("0x1.0fe7e58349c10p+3", 150, True),
        ("0x1.10247ab3d56ecp+3", 100, True),
    ],
    "linear_ramp": [
        ("0x1.f0a72980a09dbp+2", 45, True),
        ("0x1.0d6830a916a70p+3", 126, True),
        ("0x1.202f0c36946cep+3", 234, True),
        ("0x1.2fa3c6aa732e4p+3", 374, True),
    ],
}

EXHAUSTION = {
    1: ("0x1.f0a72980a1108p+2", 50, True),
    2: ("0x1.0d6830a91a30ep+3", 387, True),
}

# non_adiabatic_progression(G, max_depth=3, trials=3, seed=1): (gammas, betas) per depth.
NON_ADIABATIC = [
    (("0x1.4be1e23d5dd05p+1",), ("0x1.50cf6473ea987p-2",)),
    (
        ("0x1.2237cac760ff4p+1", "0x1.c03ed8370677ep-2"),
        ("0x1.42aea546316b8p+0", "0x1.4687a9f51f495p-1"),
    ),
    (
        ("0x1.3366047d50323p+1", "0x1.009e21ca824b8p-2", "0x1.bd41c9d685208p+0"),
        ("0x1.1e5f15574b6eep+0", "0x1.abfc3a75a14ffp-1", "0x1.6328a7a94d227p+0"),
    ),
]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_strategy_records(name):
    records = STRATEGIES[name](G, CFG)
    assert [r.depth for r in records] == [1, 2, 3, 4]
    assert [(r.f_star.hex(), r.nfev_total, r.converged) for r in records] == GOLDEN[name]


@pytest.mark.parametrize("p", [1, 2])
def test_base_exhaustion(p):
    r = base_exhaustion(G, p, CFG)
    assert (r.f_star.hex(), r.nfev_total, r.converged) == EXHAUSTION[p]


def test_non_adiabatic_progression():
    optima = non_adiabatic_progression(G, max_depth=3, trials=3, seed=1)
    got = [
        (tuple(x.hex() for x in phi.gammas), tuple(x.hex() for x in phi.betas))
        for phi in optima
    ]
    assert got == NON_ADIABATIC
