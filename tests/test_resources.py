import random

import pytest

from orchsim.resources import ResourceError, ResourceVector, unchecked


def test_add_and_sub_are_componentwise():
    a = ResourceVector(1, 1024, 10)
    b = ResourceVector(2, 2048, 20)
    assert a + b == ResourceVector(3, 3072, 30)
    assert (a + b) - a == b


def test_subtraction_below_zero_is_an_error():
    with pytest.raises(ResourceError):
        ResourceVector(1, 0, 0) - ResourceVector(2, 0, 0)
    with pytest.raises(ResourceError):
        ResourceVector(4, 100, 5) - ResourceVector(1, 200, 1)


def test_monus_clamps_at_zero():
    a = ResourceVector(1, 3000, 10)
    b = ResourceVector(2, 1000, 10)
    assert a.monus(b) == ResourceVector(0, 2000, 0)


def test_fits_requires_every_component():
    assert ResourceVector(1, 1, 1).fits(ResourceVector(1, 1, 1))
    assert ResourceVector(0, 0, 0).fits(ResourceVector(0, 0, 0))
    assert not ResourceVector(2, 1, 1).fits(ResourceVector(1, 9, 9))
    assert not ResourceVector(1, 10, 1).fits(ResourceVector(1, 9, 9))


def test_negative_or_non_integer_components_rejected():
    with pytest.raises(ResourceError):
        ResourceVector(-1, 0, 0)
    with pytest.raises(ResourceError):
        ResourceVector(1, 0.5, 0)
    with pytest.raises(ResourceError):
        ResourceVector(True, 0, 0)


def test_scale():
    assert ResourceVector(1, 512, 5).scale(4) == ResourceVector(4, 2048, 20)
    assert ResourceVector(1, 512, 5).scale(0) == ResourceVector.zero()
    with pytest.raises(ResourceError):
        ResourceVector(1, 1, 1).scale(-1)


def test_total():
    vs = [ResourceVector(1, 2, 3), ResourceVector(4, 5, 6), ResourceVector(0, 0, 1)]
    assert ResourceVector.total(vs) == ResourceVector(5, 7, 10)
    assert ResourceVector.total([]) == ResourceVector.zero()


def test_arithmetic_properties_random():
    rng = random.Random(7)
    for _ in range(500):
        a = ResourceVector(rng.randrange(8), rng.randrange(4096), rng.randrange(100))
        b = ResourceVector(rng.randrange(8), rng.randrange(4096), rng.randrange(100))
        assert a + b == b + a
        assert (a + b).monus(b).fits(a + b)
        assert a.fits(a + b)
        if b.fits(a):
            assert (a - b) + b == a
        # Results built without validation equal the validated construction,
        # hash alike and print alike.
        added = ResourceVector(a.cpus + b.cpus, a.mem_mb + b.mem_mb, a.disk_gb + b.disk_gb)
        clamped = ResourceVector(max(0, a.cpus - b.cpus), max(0, a.mem_mb - b.mem_mb),
                                 max(0, a.disk_gb - b.disk_gb))
        for fast, checked in ((a + b, added), (ResourceVector.total([a, b]), added),
                              (a.monus(b), clamped),
                              (unchecked(a.cpus, a.mem_mb, a.disk_gb), a)):
            assert type(fast) is ResourceVector
            assert fast == checked and hash(fast) == hash(checked)
            assert str(fast) == str(checked)
        if b.fits(a):
            assert a - b == clamped
