"""Combinatorial fixed-point data of fiber actions."""

import re

import pytest

from k3auto.fibers import (BRANCH_SWAP, FiberAction, FiberShape, IDENTITY,
                           INVOLUTION, ORDER_4, PRESERVE, REFLECTION,
                           ROTATION_2, ROTATION_4, TRANSLATION_2,
                           SMOOTH_SHAPE, TRANSLATION_4, action_label,
                           chain_step, fiber_fixed_data, parse_action_label,
                           point_type, type_counts)


def test_chain_step_period_eight_all_starts():
    for t in range(8):
        pair = (t, (1 - t) % 8)
        walk = pair
        for step in range(1, 9):
            walk = chain_step(walk)
            assert (walk[0] + walk[1]) % 8 == 1
            if step < 8:
                assert walk != pair
        assert walk == pair


def test_shape_names_and_validation():
    assert str(FiberShape.smooth_elliptic()) == "smooth"
    assert str(FiberShape.i_cycle(16)) == "I_16"
    assert str(FiberShape.iv_star()) == "IV*"
    with pytest.raises(ValueError):
        FiberShape.i_cycle(0)
    with pytest.raises(ValueError):
        FiberShape("weird")


def test_smooth_fiber_actions():
    data = fiber_fixed_data(SMOOTH_SHAPE, FiberAction(IDENTITY))
    # a fixed genus-1 curve adds 0 to alpha
    assert (data.k_sigma, data.points, data.elliptic_fixed_by,
            data.alpha_contrib) == (1, (0, 0, 0), 1, 0)
    data = fiber_fixed_data(SMOOTH_SHAPE, FiberAction(TRANSLATION_2))
    assert (data.k_sigma, data.k_sigma2, data.elliptic_fixed_by) == (0, 1, 2)
    data = fiber_fixed_data(SMOOTH_SHAPE, FiberAction(TRANSLATION_4))
    assert (data.k_sigma2, data.k_sigma4, data.elliptic_fixed_by) == (0, 1, 4)
    data = fiber_fixed_data(SMOOTH_SHAPE, FiberAction(INVOLUTION))
    assert data.points == (0, 0, 4)
    data = fiber_fixed_data(SMOOTH_SHAPE, FiberAction(ORDER_4, split=(2, 0)))
    assert data.points == (2, 0, 0) and data.n_sigma2 == 4
    with pytest.raises(ValueError):
        FiberAction(ORDER_4)  # missing split
    with pytest.raises(ValueError):
        FiberAction(IDENTITY, split=(1, 1))
    # each shape kind refuses an action of another kind, in its own words
    refusals = [
        (FiberShape.smooth_elliptic(), FiberAction(REFLECTION),
         "not a smooth-elliptic action: 'reflection'"),
        (FiberShape.i_cycle(8), FiberAction(BRANCH_SWAP),
         "action 'branch-swap' incompatible with I_n"),
        (FiberShape.i_cycle(16), FiberAction(ORDER_4, split=(1, 1)),
         "action 'order-4' incompatible with I_n"),
        (FiberShape.iv_star(), FiberAction(INVOLUTION),
         "action 'involution' incompatible with IV*"),
        (FiberShape.iv_star(), FiberAction(ROTATION_2),
         "action 'rotation-2' incompatible with IV*"),
    ]
    for shape, action, message in refusals:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            fiber_fixed_data(shape, action)


def test_cycle_preserve_counts():
    data = fiber_fixed_data(FiberShape.i_cycle(8), FiberAction(PRESERVE))
    assert data.k_sigma == 1 and data.points == (2, 2, 2)
    assert data.alpha_contrib == 1
    data = fiber_fixed_data(FiberShape.i_cycle(16), FiberAction(PRESERVE))
    assert data.k_sigma == 2 and data.points == (4, 4, 4)
    assert data.alpha_contrib == 2
    with pytest.raises(ValueError):
        fiber_fixed_data(FiberShape.i_cycle(12), FiberAction(PRESERVE))


def test_cycle_reflection_and_rotations():
    data = fiber_fixed_data(FiberShape.i_cycle(8), FiberAction(REFLECTION))
    assert data.k_sigma == 0 and data.points == (0, 0, 4)
    data = fiber_fixed_data(FiberShape.i_cycle(16), FiberAction(ROTATION_2))
    assert data.points == (0, 0, 0) and data.k_sigma2 > 0
    data = fiber_fixed_data(FiberShape.i_cycle(16), FiberAction(ROTATION_4))
    assert data.points == (0, 0, 0) and data.k_sigma2 == 0
    with pytest.raises(ValueError):
        fiber_fixed_data(FiberShape.i_cycle(10), FiberAction(ROTATION_2))


def test_iv_star_actions():
    data = fiber_fixed_data(FiberShape.iv_star(), FiberAction(PRESERVE))
    assert data.points == (3, 3, 0) and data.alpha_contrib == 1
    data = fiber_fixed_data(FiberShape.iv_star(), FiberAction(BRANCH_SWAP))
    assert data.points == (1, 1, 2) and data.k_sigma == 0
    with pytest.raises(ValueError):
        fiber_fixed_data(FiberShape.iv_star(), FiberAction(REFLECTION))


def test_action_labels():
    smooth = FiberShape.smooth_elliptic()
    assert action_label(smooth, FiberAction(IDENTITY)) == "identity"
    assert action_label(smooth, FiberAction(TRANSLATION_2)) \
        == "translation of order two"
    assert action_label(smooth, FiberAction(ORDER_4, split=(1, 1))) \
        == "order four"
    cycle = FiberShape.i_cycle(8)
    assert action_label(cycle, FiberAction(PRESERVE)) \
        == "preserves each curve of I_8"
    assert action_label(cycle, FiberAction(REFLECTION)) \
        == "reflection on I_8"
    assert action_label(cycle, FiberAction(ROTATION_4)) \
        == "rotation of order 4 on I_8"
    star = FiberShape.iv_star()
    assert action_label(star, FiberAction(PRESERVE)) \
        == "preserves each curve of IV*"
    assert action_label(star, FiberAction(BRANCH_SWAP)) \
        == "reflection of IV*"


def test_action_labels_parse_back():
    vocabulary = [(FiberShape.smooth_elliptic(), FiberAction(name))
                  for name in (IDENTITY, TRANSLATION_2, TRANSLATION_4,
                               INVOLUTION)]
    vocabulary.append((FiberShape.smooth_elliptic(),
                       FiberAction(ORDER_4, split=(2, 0))))
    for n in (8, 16):
        vocabulary += [(FiberShape.i_cycle(n), FiberAction(name))
                       for name in (PRESERVE, REFLECTION, ROTATION_2,
                                    ROTATION_4)]
    vocabulary += [(FiberShape.iv_star(), FiberAction(name))
                   for name in (PRESERVE, BRANCH_SWAP)]
    labels = set()
    for shape, action in vocabulary:
        label = action_label(shape, action)
        assert parse_action_label(label) == (shape, action.name)
        labels.add(label)
    assert len(labels) == len(vocabulary)
    for unknown in ("rotation of order 3 on I_8", "reflection on I_",
                    "reflection on I_8 ", "order 4", ""):
        with pytest.raises(ValueError):
            parse_action_label(unknown)


def test_point_types():
    assert [point_type(t, (9 - t) % 8) for t in range(8)] \
        == [None, None, 2, 3, 4, 4, 3, 2]
    assert point_type(2, 6) is None and point_type(4, 4) is None
    assert type_counts([(7, 2), (3, 6), (2, 7), (5, 4)]) == (2, 1, 1)
    with pytest.raises(ValueError, match="isolated point type"):
        type_counts([(1, 0)])
