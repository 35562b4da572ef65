"""Acceptance gate: one test per reference criterion.

Each criterion lives in diskflow.verification; a failure message carries
the measured detail line so the report is auditable from the test log.
Each line must also match, byte for byte, its line in
data/verify_paper_details.txt, which holds the criteria as ``verify-paper``
prints them without the verdict; a change that moves a line updates that
file and says why.
"""

import pathlib

from diskflow import verification

GOLDEN_LINES = (
    pathlib.Path(__file__).parent / "data" / "verify_paper_details.txt"
).read_text().splitlines()


def _run(fn):
    result = fn()
    line = f"{result['name']}: {result['detail']}"
    assert result["passed"], line
    index = int(fn.__name__.rsplit("_", 1)[1])
    assert f"{index} {line}" == GOLDEN_LINES[index - 1]


def test_criterion_01_quadrant_asymptotics():
    _run(verification.criterion_1)


def test_criterion_02_power_family_admissibility():
    _run(verification.criterion_2)


def test_criterion_03_linearizer_residual():
    _run(verification.criterion_3)


def test_criterion_04_hyperbolic_strip_geometry():
    _run(verification.criterion_4)


def test_criterion_05_h_type_invariant_domain():
    _run(verification.criterion_5)


def test_criterion_06_p_and_h_type_domains():
    _run(verification.criterion_6)


def test_criterion_07_parabolic_argument_bound():
    _run(verification.criterion_7)


def test_criterion_08_strong_tangency_suite():
    _run(verification.criterion_8)


def test_criterion_09_halfplane_rigidity():
    _run(verification.criterion_9)


def test_criterion_10_angular_only_separation():
    _run(verification.criterion_10)


def test_criterion_11_property_suites():
    _run(verification.criterion_11)
