import pytest

from diskflow.errors import NotInDiskError, PoleAtOneError
from diskflow.geometry import cayley, horocycle_distance, inverse_cayley


def test_cayley_roundtrip():
    for z in (0j, 0.5 + 0.2j, -0.8j, 0.99):
        assert inverse_cayley(cayley(z)) == pytest.approx(z, abs=1e-12)


def test_cayley_known_values():
    # 0 -> 1 and the boundary point -1 -> 0 under w = (1+z)/(1-z)
    assert cayley(0j) == pytest.approx(1.0)
    assert cayley(-1.0 + 0j) == pytest.approx(0.0)
    assert inverse_cayley(1j).imag != 0


def test_horocycle_distance_values():
    # d(0) = 1; level sets are horocycles tangent at 1
    assert horocycle_distance(0j) == pytest.approx(1.0)
    assert horocycle_distance(0.5 + 0j) == pytest.approx(0.25 / 0.75)
    # points on the same horocycle through 0: |1-z|^2 = 1-|z|^2
    z = 0.5 + 0.5j
    assert horocycle_distance(z) == pytest.approx(abs(1 - z) ** 2 / (1 - abs(z) ** 2))


def test_geometry_rejects_points_off_the_disk():
    with pytest.raises(NotInDiskError):
        horocycle_distance(1.5 + 0j)
    with pytest.raises(PoleAtOneError):
        cayley(1.0 + 0j)
    with pytest.raises(PoleAtOneError):
        inverse_cayley(-1.0 + 0j)
