"""Tests for GHZ-product states and the two QFI computation paths."""

import random

import pytest
from support import partitions_desc

from metroent import states
from metroent.bounds import max_qfi_wh
from metroent.partitions import YoungDiagram
from metroent.tuples import all_tuples

TOL = 1e-9


def test_qfi_analytic_examples():
    assert states.qfi_analytic(states.ghz_product([9])) == 81
    assert states.qfi_analytic(states.ghz_product([1] * 9)) == 9
    assert states.qfi_analytic(states.ghz_product([4, 2, 1])) == 21


def test_qfi_analytic_ignores_phases():
    rng = random.Random(7)
    for rows in [(4, 2, 1), (3, 3), (5, 1, 1)]:
        phases = [rng.uniform(-3.14, 3.14) for _ in rows]
        assert states.qfi_analytic(states.ghz_product(rows, phases)) == sum(
            r * r for r in rows
        )


def test_shot_noise_floor():
    for n in range(1, 21):
        assert states.qfi_analytic(states.ghz_product([1] * n)) == n


def test_optimal_state_examples():
    assert states.optimal_state(7, 4, 3).blocks == YoungDiagram((4, 2, 1))
    assert states.optimal_state(5, 5, 1).blocks == YoungDiagram((5,))
    st = states.optimal_state(14, 4, 9)
    assert st.blocks == YoungDiagram((4, 3, 1, 1, 1, 1, 1, 1, 1))
    assert states.qfi_analytic(st) == 32
    with pytest.raises(ValueError):
        states.optimal_state(7, 4, 5)


def test_optimal_state_saturates_bound():
    for n in range(1, 17):
        for w, h in all_tuples(n):
            st = states.optimal_state(n, w, h)
            assert states.qfi_analytic(st) == max_qfi_wh(n, w, h)
            assert st.blocks.n == n
            assert st.blocks.width() == w and st.blocks.height() == h


def test_statevector_matches_analytic_along_z():
    assert states.qfi_statevector(states.ghz_product([4, 2, 1]), states.AXIS_Z) == pytest.approx(
        21.0, abs=TOL
    )
    assert states.qfi_statevector(states.ghz_product([1]), states.AXIS_Z) == pytest.approx(
        1.0, abs=TOL
    )


def test_statevector_sweep_small_diagrams():
    for n in range(1, 9):
        for rows in partitions_desc(n):
            st = states.ghz_product(rows)
            dense = states.qfi_statevector(st, states.AXIS_Z)
            assert abs(dense - states.qfi_analytic(st)) <= TOL, rows


def test_statevector_phase_invariance_along_z():
    rng = random.Random(99)
    for rows in [(3, 2), (4, 1, 1), (2, 2, 2)]:
        phases = [rng.uniform(-3.14, 3.14) for _ in rows]
        dense = states.qfi_statevector(states.ghz_product(rows, phases), states.AXIS_Z)
        assert dense == pytest.approx(sum(r * r for r in rows), abs=TOL)


def test_statevector_off_axis_values():
    # pinned by the dense calculation: the zero-phase two-qubit GHZ block is
    # also a GHZ along x, so the x-axis QFI is maximal, not the naive 2
    two = states.ghz_product([2])
    assert states.qfi_statevector(two, states.AXIS_X) == pytest.approx(4.0, abs=TOL)
    assert states.qfi_statevector(two, states.AXIS_Y) == pytest.approx(0.0, abs=TOL)
    # the phase flips the x-axis roles
    two_pi = states.ghz_product([2], [3.141592653589793])
    assert states.qfi_statevector(two_pi, states.AXIS_X) == pytest.approx(0.0, abs=TOL)
    assert states.qfi_statevector(two_pi, states.AXIS_Y) == pytest.approx(4.0, abs=TOL)
    assert states.qfi_statevector(states.ghz_product([3]), states.AXIS_X) == pytest.approx(
        3.0, abs=TOL
    )


def test_statevector_size_cap():
    big = states.ghz_product([17])
    with pytest.raises(ValueError):
        states.qfi_statevector(big, states.AXIS_Z)
    small = states.ghz_product([3, 2])
    with pytest.raises(ValueError):
        states.qfi_statevector(small, states.AXIS_Z, max_qubits=4)
    assert states.qfi_statevector(small, states.AXIS_Z, max_qubits=5) == pytest.approx(
        13.0, abs=TOL
    )


def test_spin_axis_validation():
    with pytest.raises(ValueError):
        states.SpinAxis(1.0, 1.0, 0.0)
    s = 3 ** -0.5
    states.SpinAxis(s, s, s)


def test_ghz_product_phase_count_validation():
    with pytest.raises(ValueError):
        states.GhzProduct(blocks=YoungDiagram((2, 1)), phases=(0.0,))
