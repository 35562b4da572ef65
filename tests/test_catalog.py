import cmath
import math

import pytest
from conftest import mp_function

from diskflow import catalog
from diskflow.errors import UnknownCatalogIdError
from diskflow.expr import compile_expr, evaluate, parse, validate_generator


def test_default_ids_resolve():
    for cid in catalog.DEFAULT_IDS:
        entry = catalog.get(cid)
        assert entry.id == cid
        parse(entry.f_text)


def test_unknown_id_raises():
    with pytest.raises(UnknownCatalogIdError):
        catalog.get("nonsense")
    with pytest.raises(UnknownCatalogIdError):
        catalog.get("power(oops)")
    with pytest.raises(UnknownCatalogIdError):
        catalog.get("power(1.2.3,1)")
    with pytest.raises(UnknownCatalogIdError):
        catalog.get("parabolic-auto(" + "sqrt(" * 250 + "1" + ")" * 250 + ")")


def test_long_argument_chain():
    entry = catalog.get("parabolic-auto(" + "+".join(["0.01"] * 250) + ")")
    assert evaluate(parse(entry.f_text), 0j) == pytest.approx(2.5j)


def test_parametrized_families():
    entry = catalog.get("parabolic-auto(2.5)")
    assert evaluate(parse(entry.f_text), 0j) == pytest.approx(2.5j)
    entry = catalog.get("hyperbolic-auto(1,0.5)")
    assert entry.truth["beta"] == pytest.approx(2.0)


def test_quadrant_truth():
    truth = catalog.get("quadrant").truth
    assert truth["alpha"] == 0.5
    assert truth["mu"] == pytest.approx(cmath.exp(0.25j * math.pi) / math.sqrt(2))


def test_power_truth_alpha():
    assert catalog.get("power(0.5,1)").truth["alpha"] == pytest.approx(1.5)


def test_bfid_truth_counts():
    assert catalog.get("bfid-par").truth["bfid_counts"] == {"p": 2, "h": 1}
    assert catalog.get("bfid-hyp").truth["bfid_counts"] == {"p": 0, "h": 1}


def test_power_admissible_region():
    assert catalog.power_admissible(0.5, 1.0)
    assert not catalog.power_admissible(1.5, 1.0)
    assert not catalog.power_admissible(-1.0, 1.0)
    assert catalog.power_admissible(0.0, 1j)  # boundary |arg mu| = pi/2
    assert not catalog.power_admissible(0.5, 1j)
    # negative K narrows the angular budget the same way
    assert not catalog.power_admissible(-0.5, cmath.exp(1.0j))


def _consistency_error(entry) -> float:
    """Max of |f(z) + 1/h'(z)| over 50 interior points, f compiled and h'
    taken from the closed form h_text by mpmath's numerical derivative
    at 30 digits (0 when there is no h_text)."""
    if entry.h_text is None:
        return 0.0
    mpmath = pytest.importorskip("mpmath")
    f = compile_expr(parse(entry.f_text))
    h = mp_function(mpmath, entry.h_text)
    n = 50
    worst = 0.0
    with mpmath.workdps(30):
        for j in range(n):
            z = 0.7 * cmath.exp(2j * math.pi * j / n) * (0.5 + 0.5 * (j % 2))
            worst = max(worst, abs(f(z) + 1.0 / complex(mpmath.diff(h, mpmath.mpc(z)))))
    return worst


def test_consistency_error_small():
    assert _consistency_error(catalog.get("bfid-par")) < 1e-10


def test_validate_all_passes():
    # the (f, h) consistency invariant and the generator grid check on
    # every DEFAULT_IDS entry
    for entry_id in catalog.DEFAULT_IDS:
        entry = catalog.get(entry_id)
        assert _consistency_error(entry) <= 1e-10, entry_id
        report = validate_generator(parse(entry.f_text))
        assert report["is_generator"] == entry.truth.get("generator", True), entry_id
