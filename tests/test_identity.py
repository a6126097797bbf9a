"""The identity corpus: each case of `tools/identity.py` on 1 and on 2 CPUs
must give its pinned sha256.

A regression pin, not an oracle: the digests were recorded from the code
itself, so a failure shows that a change moved some value on that case's
path by one bit or more, not which value is right. A change meant to move
values re-pins them with the digests `tools/identity.py` prints, and says
which moved and why.
"""

import importlib.util
from pathlib import Path

import pytest

from qaoa_maxcut import simulator

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py"
)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

DIGESTS = {
    "bilinear-n10": "fc0a92b4d5e2253f0668a15678e1b9ff79c9ceeafeff395fb4d9b3f1195dbab4",
    "bilinear-n14": "2573c2e5b1468ea956b739f19682cd88ff7f7372081f4dfb42df32fdd4deea82",
    "bilinear-n16": "692dbe0413069d2e8ddcc66f538982c4eddbed2d3ac223c958efdac9dd3d0a91",
    "bilinear-n17": "e704df03924db597861180b141867fe80741a73fa3462b74dd666f92c58d778c",
    "bilinear-n18": "3fd6806b1879442bd298b6372d2b19745507983b9dcd02ee57ebc6abdd2eeea1",
    "desk-n10": "42cbd00ae0b45ef8be2bbe2a8604178b0471726181fe6bd42f2b5976e29fbfe9",
}


def test_every_case_is_pinned():
    assert tuple(DIGESTS) == identity.CASES


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", identity.CASES)
def test_case_digest_is_unchanged(case, cpus, monkeypatch):
    monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
    assert identity.digest(case) == DIGESTS[case]
