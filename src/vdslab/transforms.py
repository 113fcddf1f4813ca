"""Unitary measurement and sparsity bases with fast application.

Every operator here is an n x n unitary map exposed matrix-free: ``forward``
applies the matrix, ``adjoint`` applies its conjugate transpose, and both act
along axis 0 so a batch of vectors can be pushed through in one call. Operators
are immutable after construction and safe to share across concurrent workers;
each application allocates its own scratch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UnitaryOperator",
    "make_dft_operator",
    "make_haar_operator",
    "make_dense_operator",
    "compose_measurement_basis",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class UnitaryOperator:
    """Base class for n x n unitary transforms.

    Attributes:
        n: ambient dimension.
        field: "real" or "complex", the scalar field of the matrix entries.

    Row j of the operator, f_j with f_j* x = forward(x)[j], is adjoint(e_j),
    the conjugate of ``matrix()[j]``.
    """

    def __init__(self, n: int, field: str):
        self.n = int(n)
        self.field = field

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(
                f"expected array of shape ({self.n},) or ({self.n}, batch), got {x.shape}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator along axis 0 of ``x`` (shape (n,) or (n, batch))."""
        return self._forward(self._check_input(x))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Apply the conjugate transpose along axis 0 of ``y``."""
        return self._adjoint(self._check_input(y))

    def matrix(self) -> np.ndarray:
        """Return the dense n x n matrix (column j is forward(e_j))."""
        return self.forward(np.eye(self.n))

    def conjugate_rows(self) -> np.ndarray:
        """Row permutation P with conj(forward(x)) == forward(x)[P] for every real x.

        The identity: exact for real operators; for complex ones it makes the fold's ||A||^2 a bound.
        """
        return np.arange(self.n)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} field={self.field}>"


class _Dft1d(UnitaryOperator):
    def __init__(self, n: int):
        super().__init__(n, "complex")

    def _forward(self, x):
        return np.fft.fft(x, axis=0, norm="ortho")

    def _adjoint(self, y):
        return np.fft.ifft(y, axis=0, norm="ortho")

    def conjugate_rows(self):
        return -np.arange(self.n) % self.n


class _Dft2d(UnitaryOperator):
    def __init__(self, side: int):
        super().__init__(side * side, "complex")
        self.side = side

    def _image(self, x):
        # row-major flattened square image, batch trailing
        batched = x.ndim == 2
        img = x.reshape(self.side, self.side, -1)
        return img, batched

    def _forward(self, x):
        img, batched = self._image(x)
        out = np.fft.fft2(img, axes=(0, 1), norm="ortho")
        return out.reshape(self.n, -1) if batched else out.reshape(self.n)

    def _adjoint(self, y):
        img, batched = self._image(y)
        out = np.fft.ifft2(img, axes=(0, 1), norm="ortho")
        return out.reshape(self.n, -1) if batched else out.reshape(self.n)

    def conjugate_rows(self):
        neg = -np.arange(self.side) % self.side
        return (neg[:, None] * self.side + neg).ravel()


_BLOCK_LEVELS = 5  # levels per block step: a 32 x 32 matrix, whatever the depth


def _haar_block_matrix(levels: int) -> np.ndarray:
    """Orthonormal Haar analysis of one block of 2**levels samples, bands in coefficient order.

    Built in closed form, H_1 = [1] and H_2B = [H_B kron (1, 1)/sqrt(2); I_B kron (1, -1)/sqrt(2)]:
    the top half analyses the pair averages, the bottom half holds the finest details.
    """
    h = np.ones((1, 1))
    for _ in range(levels):
        h = np.vstack(
            [np.kron(h, [_INV_SQRT2, _INV_SQRT2]), np.kron(np.eye(len(h)), [_INV_SQRT2, -_INV_SQRT2])]
        )
    return h


def _haar_steps(length: int, levels: int) -> tuple:
    """The block steps of a ``levels``-deep Haar along an axis of ``length`` samples.

    An L-level Haar is the same transform on every block of 2**L consecutive
    samples, so one step is a matmul by that block's matrix plus a gather
    ``index`` from block-major order into the band layout (approximation at the
    coarsest level first, then detail bands from coarsest to finest);
    ``inverse`` undoes the gather. A step runs at most ``_BLOCK_LEVELS`` levels,
    so deeper transforms repeat the step on the approximation band. Each step is
    (length, matrix, index, inverse), all read-only.
    """
    steps = []
    while levels > 0:
        step_levels = min(levels, _BLOCK_LEVELS)
        size = 1 << step_levels
        starts = np.arange(0, length, size)[:, None]
        bands = [starts] + [starts + np.arange(w, 2 * w) for w in (1 << j for j in range(step_levels))]
        index = np.concatenate([band.ravel() for band in bands])
        step = (length, _haar_block_matrix(step_levels), index, np.argsort(index))
        for a in step[1:]:
            a.setflags(write=False)
        steps.append(step)
        length >>= step_levels
        levels -= step_levels
    return tuple(steps)


def _haar_block_step(work: np.ndarray, h: np.ndarray, index, inverse, adjoint: bool) -> np.ndarray:
    """One block step on a real vector (length,) or on real columns (length, c).

    A vector is one (blocks, B) @ h.T product with the blocks as rows; columns
    are a stack of h @ (B, c) products, one per block.
    """
    size = len(h)
    if adjoint:
        if work.ndim == 1:
            return (work[inverse].reshape(-1, size) @ h).reshape(-1)
        blocks = np.take(work, inverse, axis=0).reshape(-1, size, work.shape[1])
        return (h.T @ blocks).reshape(len(work), -1)
    if work.ndim == 1:
        return (work.reshape(-1, size) @ h.T).reshape(-1)[index]
    blocks = h @ work.reshape(-1, size, work.shape[1])
    return np.take(blocks.reshape(len(work), -1), index, axis=0)


def _haar_axis0(arr: np.ndarray, steps: tuple, adjoint: bool) -> np.ndarray:
    """Haar analysis (or, with ``adjoint``, synthesis) along axis 0 of ``arr`` by its block steps.

    A complex input is transformed as its real view, each entry two adjacent
    real columns; the result is always a fresh array.
    """
    arr = np.asarray(arr, dtype=np.result_type(arr.dtype, np.float64))
    is_complex = np.iscomplexobj(arr)
    work = np.ascontiguousarray(arr).view(np.float64).reshape(len(arr), -1) if is_complex else arr
    if not steps or (adjoint and len(steps) > 1):
        work = work.copy()  # fresh for the identity, and for the shorter steps to write into
    for length, h, index, inverse in reversed(steps) if adjoint else steps:
        out = _haar_block_step(work[:length], h, index, inverse, adjoint)
        if length == len(work):
            work = out
        else:
            work[:length] = out
    if is_complex:
        work = work.view(np.complex128)
    return work.reshape(arr.shape)


class _Haar1d(UnitaryOperator):
    def __init__(self, n: int, levels: int):
        super().__init__(n, "real")
        self._steps = _haar_steps(n, levels)

    def _forward(self, x):
        return _haar_axis0(x, self._steps, adjoint=False)

    def _adjoint(self, y):
        return _haar_axis0(y, self._steps, adjoint=True)


class _Haar2d(UnitaryOperator):
    """Tensor-product Haar on a row-major flattened square image.

    The full 1D multi-level transform is applied separably: first along image
    rows, then along image columns.
    """

    def __init__(self, side: int, levels: int):
        super().__init__(side * side, "real")
        self.side = side
        self._steps = _haar_steps(side, levels)

    def _separable(self, x, adjoint):
        batched = x.ndim == 2
        batch = x.shape[1] if batched else 1
        img = x.reshape(self.side, self.side, batch)
        # along columns of the image (axis 0), batching the rest
        img = _haar_axis0(img.reshape(self.side, -1), self._steps, adjoint).reshape(img.shape)
        # along rows: bring axis 1 first
        img = np.ascontiguousarray(np.moveaxis(img, 1, 0))
        img = _haar_axis0(img.reshape(self.side, -1), self._steps, adjoint).reshape(img.shape)
        img = np.moveaxis(img, 0, 1)
        out = img.reshape(self.n, batch)
        return out if batched else out[:, 0]

    def _forward(self, x):
        return self._separable(x, adjoint=False)

    def _adjoint(self, y):
        return self._separable(y, adjoint=True)


class _Dense(UnitaryOperator):
    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator requires a square matrix")
        n = matrix.shape[0]
        if np.iscomplexobj(matrix):
            mat = matrix.astype(np.complex128)
            field = "complex"
        else:
            mat = matrix.astype(np.float64)
            field = "real"
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(n))) > 1e-8:
            raise ValueError("matrix is not unitary within tolerance 1e-8")
        mat.setflags(write=False)
        super().__init__(n, field)
        self._mat = mat

    def _forward(self, x):
        return self._mat @ x

    def _adjoint(self, y):
        return self._mat.conj().T @ y


class _Composed(UnitaryOperator):
    """measurement . sparsity-adjoint, so priors live on coefficient vectors."""

    def __init__(self, measurement: UnitaryOperator, sparsity: UnitaryOperator):
        if measurement.n != sparsity.n:
            raise ValueError(
                f"dimension mismatch: measurement n={measurement.n}, sparsity n={sparsity.n}"
            )
        field = "complex" if "complex" in (measurement.field, sparsity.field) else "real"
        super().__init__(measurement.n, field)
        self.measurement = measurement
        self.sparsity = sparsity

    def _forward(self, x):
        return self.measurement.forward(self.sparsity.adjoint(x))

    def _adjoint(self, y):
        return self.sparsity.forward(self.measurement.adjoint(y))

    def conjugate_rows(self):
        # a real sparsity basis keeps x real on its way into the measurement
        return (self.measurement if self.sparsity.field == "real" else super()).conjugate_rows()


def make_dft_operator(n: int, *, two_dim: bool = False) -> UnitaryOperator:
    """Unitary discrete Fourier transform of length n (power of two, n >= 2).

    With ``two_dim`` the operator acts on row-major flattened square images and
    n must be a perfect square with power-of-two side.
    """
    n = int(n)
    if two_dim:
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise ValueError(f"2D transform needs a square image, n={n} is not a perfect square")
        if not _is_power_of_two(side) or side < 2:
            raise ValueError(f"side length must be a power of two >= 2, got {side}")
        return _Dft2d(side)
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    return _Dft1d(n)


def make_haar_operator(n: int, levels: int, *, two_dim: bool = False) -> UnitaryOperator:
    """Orthonormal Haar analysis operator of the given decomposition depth.

    levels=0 is the identity. 1D requires n divisible by 2**levels; the 2D
    variant acts separably on a row-major flattened square image whose side
    must be divisible by 2**levels.
    """
    n = int(n)
    levels = int(levels)
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if two_dim:
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise ValueError(f"2D transform needs a square image, n={n} is not a perfect square")
        if levels and side % (1 << levels) != 0:
            raise ValueError(f"side {side} not divisible by 2**{levels}")
        return _Haar2d(side, levels)
    if n < 1 or (levels and n % (1 << levels) != 0):
        raise ValueError(f"n={n} not divisible by 2**{levels}")
    return _Haar1d(n, levels)


def make_dense_operator(matrix: np.ndarray) -> UnitaryOperator:
    """Wrap an explicit unitary matrix (validated to 1e-8) as an operator."""
    return _Dense(matrix)


def compose_measurement_basis(
    measurement: UnitaryOperator, sparsity: UnitaryOperator
) -> UnitaryOperator:
    """Compose measurement-forward with sparsity-adjoint into one unitary map.

    The result applies sparsity.adjoint then measurement.forward, so that a
    prior expressed on sparsity coefficients is measured in the measurement
    basis.
    """
    return _Composed(measurement, sparsity)

