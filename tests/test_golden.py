"""Golden digests of seeded runs: the per-scan kernels must stay bit-identical.

Each case runs ``run_single`` on the canonical scenario and hashes the raw
bytes of ``pos_errors`` and ``estimate_track``.  A speed-up that reorders
arithmetic, draws from the random stream differently or changes a matrix
product's BLAS path changes a digest.  The digests were recorded at commit
28bd85f; they hold for the numpy build that recorded them, so a different
numpy or BLAS build may need them re-recorded from that commit.

The nine ``max-entropy+gaussian`` digests were re-recorded on top of commit
2a5ab1c, when the continuous water level became closed-form (an inverse
incomplete-gamma call instead of a bisection).  The level moves in its last
bits, so the water-poured proposal's draws move by a few ulps; the runs'
position errors moved by at most about 1e-11 relative.  The
``density+ignorance`` and ``standard`` digests never call that code and did
not move.

The three ``standard`` digests at N = 500 were re-recorded when
``standard_pf_init`` began returning its estimate as ``weights @ states``,
the product its step uses, instead of the estimate being formed from the
position columns alone.  Only the scan-1 estimate and error moved, by at
most 3.7e-12 m; every later scan, and every possibility digest, is
bit-identical.  At N = 1 and 2 the two products agree bit for bit.
"""

import hashlib

import pytest

from posspf.bench import Scenario, run_single
from posspf.filters import PossibilityPFOptions

OPTION_SETS = {
    "density+ignorance": PossibilityPFOptions(),
    "max-entropy+gaussian": PossibilityPFOptions(proposal="max-entropy", transition_weighting="gaussian"),
}


def run_digest(filter_kind: str, options: str | None, n: int, seed: int) -> str:
    chosen = PossibilityPFOptions() if options is None else OPTION_SETS[options]
    report = run_single(Scenario(), filter_kind, n, seed, options=chosen)
    digest = hashlib.sha256(report.pos_errors.tobytes())
    digest.update(report.estimate_track.tobytes())
    return digest.hexdigest()[:16]


# (filter, options, particles, seed) -> digest.  The bootstrap filter has no options.
GOLDEN = {
    ("possibility", "density+ignorance", 1, 20240501): "1c3ba11a00976176",
    ("possibility", "max-entropy+gaussian", 1, 20240501): "6cc39ae64a8e1578",
    ("standard", None, 1, 20240501): "322bf29866f9c5f6",
    ("possibility", "density+ignorance", 1, 20240502): "4f2b4ac9e0e8c0f2",
    ("possibility", "max-entropy+gaussian", 1, 20240502): "6bfe6f4c3978c13c",
    ("standard", None, 1, 20240502): "70b765283c3f0a2d",
    ("possibility", "density+ignorance", 1, 20240503): "8be68050ac107840",
    ("possibility", "max-entropy+gaussian", 1, 20240503): "6023948b868363fe",
    ("standard", None, 1, 20240503): "c5d2a11b6d71fcde",
    ("possibility", "density+ignorance", 2, 20240501): "ad5cae74f693f204",
    ("possibility", "max-entropy+gaussian", 2, 20240501): "7f4f026b60877fff",
    ("standard", None, 2, 20240501): "8925314279d61fb7",
    ("possibility", "density+ignorance", 2, 20240502): "e0f94e48984f99af",
    ("possibility", "max-entropy+gaussian", 2, 20240502): "57bd4bd4e0bd0905",
    ("standard", None, 2, 20240502): "a6b5c5203fcf598a",
    ("possibility", "density+ignorance", 2, 20240503): "1220620dffc1178a",
    ("possibility", "max-entropy+gaussian", 2, 20240503): "fc9aed5d5f0cf391",
    ("standard", None, 2, 20240503): "b04125c02f066628",
    ("possibility", "density+ignorance", 500, 20240501): "d7b505f92f0fca95",
    ("possibility", "max-entropy+gaussian", 500, 20240501): "943511888bd6592d",
    ("standard", None, 500, 20240501): "9e8ed6ea5b3f3f80",
    ("possibility", "density+ignorance", 500, 20240502): "bba63e5448ffb51f",
    ("possibility", "max-entropy+gaussian", 500, 20240502): "291828f77f934323",
    ("standard", None, 500, 20240502): "7b0519dc1702befc",
    ("possibility", "density+ignorance", 500, 20240503): "0131999acc139873",
    ("possibility", "max-entropy+gaussian", 500, 20240503): "2d00eb99cfd8419f",
    ("standard", None, 500, 20240503): "cf8e39bf18dc777e",
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_run_single_is_bit_identical_to_recorded_digest(case):
    assert run_digest(*case) == GOLDEN[case]
