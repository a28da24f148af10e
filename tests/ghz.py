"""GHZ-product states and their quantum Fisher information, for the tests.

These states saturate the class limits of ``metroent.bounds``; nothing in the
package needs them, so they live next to the tests that check that claim.
The analytic path evaluates the QFI of a product of GHZ blocks blockwise
(each block of size m contributes exactly m**2 along z).  The dense path
builds the full 2**n state vector and measures 4 * Var(J_axis) directly; it
is deliberately naive -- no symmetry reductions -- so the two computations
share nothing but the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from metroent.bounds import _wh_rows, max_qfi_wh

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class SpinAxis:
    """A unit vector defining a collective spin direction."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be normalized, |n| = {norm}")


AXIS_X = SpinAxis(1.0, 0.0, 0.0)
AXIS_Y = SpinAxis(0.0, 1.0, 0.0)
AXIS_Z = SpinAxis(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class GhzProduct:
    """A pure product of GHZ blocks, one block per diagram row.

    ``blocks`` holds the row sizes.  Block l of size m is
    (|d...d> + e^{i phase_l} |u...u>) / sqrt(2).
    """

    blocks: tuple[int, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) != len(self.blocks):
            raise ValueError(
                f"need one phase per block: {len(self.blocks)} blocks, "
                f"{len(self.phases)} phases"
            )


def ghz_product(rows, phases=None) -> GhzProduct:
    """Build a GHZ product from row sizes; phases default to zero."""
    rows = tuple(rows)
    if phases is None:
        phases = (0.0,) * len(rows)
    return GhzProduct(blocks=rows, phases=tuple(phases))


def qfi_analytic(state: GhzProduct) -> int:
    """QFI of a GHZ product along z: the squared-row sum, independent of phases."""
    return sum(m * m for m in state.blocks)


def optimal_state(n: int, w: int, h: int) -> GhzProduct:
    """The GHZ product saturating the (w, h) class limit.

    Blocks follow the maximizing diagram shape (full-width rows, one partial
    row, singletons); its analytic QFI equals ``max_qfi_wh(n, w, h)``, which
    also rejects an invalid tuple.
    """
    limit = max_qfi_wh(n, w, h)
    k, u, v = _wh_rows(n, w, h)
    state = ghz_product((w,) * k + (u,) + (1,) * v)
    assert qfi_analytic(state) == limit
    return state


def _block_vector(size: int, phase: float) -> np.ndarray:
    v = np.zeros(2**size, dtype=complex)
    v[0] = 1 / math.sqrt(2)
    v[-1] = np.exp(1j * phase) / math.sqrt(2)
    return v


def _apply_collective_spin(vec: np.ndarray, n_qubits: int, axis: SpinAxis) -> np.ndarray:
    op = (axis.x * _PAULI["x"] + axis.y * _PAULI["y"] + axis.z * _PAULI["z"]) / 2
    out = np.zeros_like(vec)
    for i in range(n_qubits):
        reshaped = vec.reshape(2**i, 2, 2 ** (n_qubits - 1 - i))
        out += np.einsum("ab,ibj->iaj", op, reshaped).reshape(vec.shape)
    return out


def qfi_statevector(state: GhzProduct, axis: SpinAxis, *, max_qubits: int = 16) -> float:
    """QFI as 4 * Var(J_axis) on the explicit dense state vector.

    Exists solely as an independent cross-check of :func:`qfi_analytic`;
    agrees with it along z within 1e-9 absolute for n <= 16.  Raises for
    states larger than ``max_qubits`` to bound memory at 2**max_qubits
    amplitudes.
    """
    n = sum(state.blocks)
    if n > max_qubits:
        raise ValueError(f"state has {n} qubits, dense path capped at {max_qubits}")
    psi = np.array([1.0 + 0j])
    for size, phase in zip(state.blocks, state.phases):
        psi = np.kron(psi, _block_vector(size, phase))
    j_psi = _apply_collective_spin(psi, n, axis)
    mean = np.vdot(psi, j_psi).real
    mean_sq = np.vdot(j_psi, j_psi).real
    return 4.0 * (mean_sq - mean**2)
