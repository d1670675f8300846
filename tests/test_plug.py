import pytest

from recplug.errors import PieceKindError
from recplug.pipelines import render_value
from recplug.plug import mapper, mapper_cps, plug, run_instance, shower, zipper
from recplug.records import EXAMPLE_DEVICE, Device, destructure_device
from recplug.scott import destructure_device_cps

from support import DEVICE_PIECES, MAPPED_DEVICE, ZIP_PIECES


def plug_all(instance, pieces):
    for piece in pieces:
        instance = plug(instance, piece)
    return instance


def test_mapper_chain():
    inst = plug_all(mapper("device", destructure_device), DEVICE_PIECES)
    assert run_instance(inst, EXAMPLE_DEVICE) == MAPPED_DEVICE


def test_mapper_cps_chain():
    inst = plug_all(mapper_cps("device", destructure_device_cps), DEVICE_PIECES)
    assert run_instance(inst, EXAMPLE_DEVICE) == MAPPED_DEVICE


def test_shower_chain():
    inst = plug_all(shower("device", destructure_device), [render_value] * 3)
    assert run_instance(inst, EXAMPLE_DEVICE) == "False 19 1"


def test_zipper_chain():
    inst = plug_all(
        zipper("device", destructure_device, destructure_device), ZIP_PIECES
    )
    assert run_instance(inst, EXAMPLE_DEVICE, MAPPED_DEVICE) == Device(False, 138, 202)


def test_non_callable_piece():
    with pytest.raises(PieceKindError):
        plug(mapper("device", destructure_device), 42)


def test_port_accounting():
    inst = mapper("device", destructure_device)
    for expected in (3, 2, 1):
        assert inst.steps_remaining == expected
        inst = plug(inst, lambda v: v)
    assert inst.steps_remaining == 0
    assert run_instance(inst, EXAMPLE_DEVICE) == EXAMPLE_DEVICE


def test_sequencing_pieces_hit_fields_in_order():
    calls = []

    def tag(i):
        def piece(v):
            calls.append((i, v))
            return v

        return piece

    inst = plug_all(mapper("device", destructure_device), [tag(i) for i in range(3)])
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
