"""Tests for GHZ-product states and the two QFI computation paths."""

import random

import ghz
import pytest
from support import partitions_desc

from metroent.bounds import max_qfi_wh
from metroent.tuples import all_tuples

TOL = 1e-9


def test_qfi_analytic_examples():
    assert ghz.qfi_analytic(ghz.ghz_product([9])) == 81
    assert ghz.qfi_analytic(ghz.ghz_product([1] * 9)) == 9
    assert ghz.qfi_analytic(ghz.ghz_product([4, 2, 1])) == 21


def test_qfi_analytic_ignores_phases():
    rng = random.Random(7)
    for rows in [(4, 2, 1), (3, 3), (5, 1, 1)]:
        phases = [rng.uniform(-3.14, 3.14) for _ in rows]
        assert ghz.qfi_analytic(ghz.ghz_product(rows, phases)) == sum(
            r * r for r in rows
        )


def test_shot_noise_floor():
    for n in range(1, 21):
        assert ghz.qfi_analytic(ghz.ghz_product([1] * n)) == n


def test_optimal_state_examples():
    assert ghz.optimal_state(7, 4, 3).blocks == (4, 2, 1)
    assert ghz.optimal_state(5, 5, 1).blocks == (5,)
    st = ghz.optimal_state(14, 4, 9)
    assert st.blocks == (4, 3, 1, 1, 1, 1, 1, 1, 1)
    assert ghz.qfi_analytic(st) == 32
    with pytest.raises(ValueError):
        ghz.optimal_state(7, 4, 5)


def test_optimal_state_saturates_bound():
    for n in range(1, 17):
        for w, h in all_tuples(n):
            st = ghz.optimal_state(n, w, h)
            assert ghz.qfi_analytic(st) == max_qfi_wh(n, w, h)
            assert sum(st.blocks) == n
            assert st.blocks[0] == w and len(st.blocks) == h


def test_statevector_matches_analytic_along_z():
    assert ghz.qfi_statevector(ghz.ghz_product([4, 2, 1]), ghz.AXIS_Z) == pytest.approx(
        21.0, abs=TOL
    )
    assert ghz.qfi_statevector(ghz.ghz_product([1]), ghz.AXIS_Z) == pytest.approx(
        1.0, abs=TOL
    )


def test_statevector_sweep_small_diagrams():
    for n in range(1, 9):
        for rows in partitions_desc(n):
            st = ghz.ghz_product(rows)
            dense = ghz.qfi_statevector(st, ghz.AXIS_Z)
            assert abs(dense - ghz.qfi_analytic(st)) <= TOL, rows


def test_statevector_phase_invariance_along_z():
    rng = random.Random(99)
    for rows in [(3, 2), (4, 1, 1), (2, 2, 2)]:
        phases = [rng.uniform(-3.14, 3.14) for _ in rows]
        dense = ghz.qfi_statevector(ghz.ghz_product(rows, phases), ghz.AXIS_Z)
        assert dense == pytest.approx(sum(r * r for r in rows), abs=TOL)


def test_statevector_off_axis_values():
    # pinned by the dense calculation: the zero-phase two-qubit GHZ block is
    # also a GHZ along x, so the x-axis QFI is maximal, not the naive 2
    two = ghz.ghz_product([2])
    assert ghz.qfi_statevector(two, ghz.AXIS_X) == pytest.approx(4.0, abs=TOL)
    assert ghz.qfi_statevector(two, ghz.AXIS_Y) == pytest.approx(0.0, abs=TOL)
    # the phase flips the x-axis roles
    two_pi = ghz.ghz_product([2], [3.141592653589793])
    assert ghz.qfi_statevector(two_pi, ghz.AXIS_X) == pytest.approx(0.0, abs=TOL)
    assert ghz.qfi_statevector(two_pi, ghz.AXIS_Y) == pytest.approx(4.0, abs=TOL)
    assert ghz.qfi_statevector(ghz.ghz_product([3]), ghz.AXIS_X) == pytest.approx(
        3.0, abs=TOL
    )


def test_statevector_size_cap():
    big = ghz.ghz_product([17])
    with pytest.raises(ValueError):
        ghz.qfi_statevector(big, ghz.AXIS_Z)
    small = ghz.ghz_product([3, 2])
    with pytest.raises(ValueError):
        ghz.qfi_statevector(small, ghz.AXIS_Z, max_qubits=4)
    assert ghz.qfi_statevector(small, ghz.AXIS_Z, max_qubits=5) == pytest.approx(
        13.0, abs=TOL
    )


def test_spin_axis_validation():
    with pytest.raises(ValueError):
        ghz.SpinAxis(1.0, 1.0, 0.0)
    s = 3 ** -0.5
    ghz.SpinAxis(s, s, s)


def test_ghz_product_phase_count_validation():
    with pytest.raises(ValueError):
        ghz.GhzProduct(blocks=(2, 1), phases=(0.0,))
