from functools import reduce

import pytest

from recplug.errors import PieceKindError
from recplug.plug import mapper, mapper_cps, plug, run_instance, shower, zipper
from recplug.records import EXAMPLE_DEVICE, destructure_device
from recplug.scott import destructure_device_cps


def test_non_callable_piece():
    with pytest.raises(PieceKindError):
        plug(mapper("device", destructure_device), 42)


def test_sequencing_pieces_hit_fields_in_order():
    calls = []

    def tag(i):
        def piece(v):
            calls.append((i, v))
            return v

        return piece

    inst = reduce(plug, [tag(i) for i in range(3)], mapper("device", destructure_device))
    run_instance(inst, EXAMPLE_DEVICE)
    assert calls == [(0, False), (1, 19), (2, 1)]


def test_instances_are_immutable():
    base = mapper("device", destructure_device)
    plugged = plug(base, lambda v: v)
    assert base.steps_remaining == 3
    assert plugged.steps_remaining == 2
    assert base.pipeline is not plugged.pipeline


@pytest.mark.parametrize(
    "construct,destructs",
    [
        (mapper, (destructure_device,)),
        (mapper_cps, (destructure_device_cps,)),
        (shower, (destructure_device,)),
        (zipper, (destructure_device, destructure_device)),
    ],
)
def test_a_family_is_shared(construct, destructs):
    """Every instance of a family, plugged or not, holds the same Family."""
    first, second = construct("device", *destructs), construct("device", *destructs)
    assert first.family is second.family
    assert plug(first, lambda *v: v[0]).family is first.family
