"""Unitary measurement and sparsity bases with fast application.

Every operator here is an n x n unitary map exposed matrix-free: ``forward``
applies the matrix, ``adjoint`` applies its conjugate transpose, and both act
along axis 0 so a batch of vectors can be pushed through in one call. Operators
are immutable after construction and safe to share across concurrent workers;
each application allocates its own scratch.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import index

import numpy as np

__all__ = [
    "UnitaryOperator",
    "make_dft_operator",
    "make_haar_operator",
    "compose_measurement_basis",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integer(name: str, value) -> int:
    # a public count: index() takes Python and NumPy integers and refuses a float that int() would
    # truncate; a bool is an int to Python, so it is refused first
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return index(value)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _square_side(n: int) -> int:
    """The side of a square image of n pixels; n must be a positive perfect square."""
    side = math.isqrt(max(n, 0))
    if n < 1 or side * side != n:
        raise ValueError(f"2D transform needs a square image, n={n} is not a positive perfect square")
    return side


class UnitaryOperator:
    """Base class for n x n unitary transforms.

    Attributes:
        n: ambient dimension.
        field: "real" or "complex", the scalar field of the matrix entries.

    Row j of the operator, f_j with f_j* x = forward(x)[j], is adjoint(e_j),
    the conjugate of row j of the matrix, whose column k is forward(e_k).
    """

    def __init__(self, n: int, field: str):
        self.n = int(n)
        self.field = field
        self._conjugate = None

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

    def conjugate_rows(self) -> np.ndarray:
        """Row permutation P with conj(forward(x)) == forward(x)[P] for every real x.

        Built once per operator and read-only; every sampled operator on it reads it.
        """
        if self._conjugate is None:
            rows = self._conjugate_rows()
            rows.setflags(write=False)
            self._conjugate = rows
        return self._conjugate

    def _conjugate_rows(self) -> np.ndarray:
        """The identity: exact for real operators; for complex ones it makes the fold's ||A||^2 a bound."""
        return np.arange(self.n)

    def _column_shifts(self):
        """None, or (shape, band, shift) when every column is its band's representative translated.

        The only column description a subclass gives; ``_column_bands`` and
        ``_shift_table`` both derive from it. Column k is then forward(e_c)
        for the representative c of band ``band[k]``, its one column of shift
        0, cyclically translated by ``shift[k]`` samples of the flattened
        input, read in a DFT's ``shape`` (n,) or (side, side); the default has
        no such bands.
        """
        return None

    def _column_bands(self) -> tuple:
        """(columns, sizes): column columns[b] stands for sizes[b] columns with its row-wise magnitudes.

        Derived from ``_column_shifts``: columns[b] is band b's column of shift
        0 and sizes[b] its number of columns, since a translate changes every
        row of forward(e_k) by a phase only. Without translate bands every
        column is a band of its own.
        """
        shifts = self._column_shifts()
        if shifts is None:
            return np.arange(self.n), np.ones(self.n, dtype=np.int64)
        _, band, shift = shifts
        first = np.flatnonzero(shift == 0)
        columns = np.empty_like(first)
        columns[band[first]] = first
        return columns, np.bincount(band)

    def _unit_columns(self, columns) -> np.ndarray:
        """forward(e_k) for every k in ``columns``, as an (n, len(columns)) block."""
        unit = np.zeros((self.n, len(columns)))
        unit[columns, np.arange(len(columns))] = 1.0
        return self.forward(unit)

    @cached_property
    def _shift_table(self):
        """(spectra, band, row_turns, shift_turns, roots) of ``_column_shifts``, or None.

        Built on first use and then kept. ``spectra`` is ``_unit_columns`` of
        the ``_column_bands`` representatives, one column per band;
        ``row_turns`` and ``shift_turns`` hold every row's and every shift's
        index along each axis of ``shape``, and ``roots`` the side = shape[0]
        roots of unity exp(-2 pi i t / side). By the shift theorem, column k
        is spectra[:, band[k]] times roots[sum over axes a of
        row_turns[a] * shift_turns[a][k], mod side].
        """
        shifts = self._column_shifts()
        if shifts is None:
            return None
        shape, band, shift = shifts
        side = shape[0]
        roots = np.exp(-2j * np.pi * np.arange(side) / side)
        row_turns = np.unravel_index(np.arange(self.n), shape)
        shift_turns = np.unravel_index(shift, shape)
        for a in (band, roots, *row_turns, *shift_turns):
            a.setflags(write=False)
        spectra = _read_only(self._unit_columns(self._column_bands()[0]))
        return spectra, band, row_turns, shift_turns, roots

    def _columns(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """forward(e_k)[rows] for every k in ``columns``, as a (len(rows), len(columns)) block.

        An operator with translate bands gathers it in closed form
        (``_shift_table``); any other transforms the unit columns.
        """
        table = self._shift_table
        if table is None:
            return self._unit_columns(columns)[rows]
        spectra, band, row_turns, shift_turns, roots = table
        turns = sum(np.multiply.outer(r[rows], s[columns]) for r, s in zip(row_turns, shift_turns))
        turns &= len(roots) - 1  # mod the side, a power of two
        block = spectra[rows].take(band[columns], axis=1)  # two 1-D gathers beat one 2-D gather
        block *= roots[turns]
        return block

    def _forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} field={self.field}>"


class _Dft(UnitaryOperator):
    """Unitary DFT of a signal of ``signal_shape`` (n,) or of a row-major flattened square image
    of ``signal_shape`` (side, side), batch trailing: the 1-D DFT along every axis."""

    def __init__(self, signal_shape: tuple):
        super().__init__(math.prod(signal_shape), "complex")
        self.signal_shape = signal_shape

    def _apply(self, x, transform):
        if len(self.signal_shape) == 1:  # one call on the input as given
            return transform(x, axis=0, norm="ortho")
        img = x.reshape(*self.signal_shape, -1)
        for axis in (1, 0):  # np.fft.fftn's order, so an image gets fft2's bits
            img = transform(img, axis=axis, norm="ortho")
        return img.reshape(x.shape)

    def _forward(self, x):
        return self._apply(x, np.fft.fft)

    def _adjoint(self, y):
        return self._apply(y, np.fft.ifft)

    def _conjugate_rows(self):
        # -j mod the length along every axis
        index = np.arange(self.n).reshape(self.signal_shape)
        return np.roll(np.flip(index), 1, axis=tuple(range(index.ndim))).ravel()

    def _column_shifts(self):
        # e_k is e_0 translated by k
        return self.signal_shape, np.zeros(self.n, dtype=np.int64), np.arange(self.n)


_BLOCK_LEVELS = 5  # levels per block step: a 32 x 32 matrix, whatever the depth


def _haar_block_matrix(levels: int) -> np.ndarray:
    """Orthonormal Haar analysis of one block of 2**levels samples, bands in coefficient order.

    The matrix of the recursion H_1 = [1], H_2B = [H_B kron (1, 1)/sqrt(2); I_B kron (1, -1)/sqrt(2)],
    bitwise and signed zeros included, written out in one broadcast: the approximation row is
    2**(-levels/2) on every sample; the detail band of 2**s rows (s = 0 the coarsest) has row i
    at 2**(-(levels - s)/2) on span i of 2**(levels - s) samples. A detail row's sign is minus on
    the second half of every span, its zeros too, as the recursion's -0.0 products leave them.
    """
    size = 1 << levels
    # scales[t] is 2**(-t/2) as t products of 1/sqrt(2), in the order the recursion forms them
    scales = np.cumprod(np.r_[1.0, np.full(levels, _INV_SQRT2)])
    band = np.repeat(np.arange(levels), 1 << np.arange(levels))  # s of each detail row
    place = np.arange(1, size) - (1 << band)  # i, the row's place in its band
    span = (levels - band)[:, None]  # log2 of the row's span
    samples = np.arange(size)
    on = (samples >> span) == place[:, None]
    sign = 1.0 - 2.0 * ((samples >> (span - 1)) & 1)
    details = np.where(on, scales[span], 0.0) * sign
    return np.vstack([np.full((1, size), scales[levels]), details])


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


def _haar_bands(length: int, levels: int) -> tuple:
    """(starts, sizes) of the coefficient bands of a ``levels``-deep Haar on ``length`` samples.

    The approximation band comes first, then the detail bands from the
    coarsest to the finest; the wavelets of one band are translates of its
    first one.
    """
    details = [length >> level for level in range(levels, 0, -1)]
    return _read_only(np.array([0, *details])), _read_only(np.array([length >> levels, *details]))


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


class _Haar(UnitaryOperator):
    """Orthonormal multi-level Haar analysis of a signal of ``signal_shape`` (n,), or of a
    row-major flattened square image of ``signal_shape`` (side, side), batch trailing: the
    1-D transform down the image's columns (axis 0), then along its rows."""

    def __init__(self, signal_shape: tuple, levels: int):
        super().__init__(math.prod(signal_shape), "real")
        self.signal_shape = signal_shape
        length = signal_shape[0]
        self._steps = _haar_steps(length, levels)
        self._bands = _haar_bands(length, levels)

    def _apply(self, x, adjoint):
        if len(self.signal_shape) == 1:  # a vector stays on its one-matmul path
            return _haar_axis0(x, self._steps, adjoint)
        img = x.reshape(*self.signal_shape, -1)
        for axis in (0, 1):  # every other axis is a batch of lines
            img = np.ascontiguousarray(np.moveaxis(img, axis, 0))
            img = _haar_axis0(img.reshape(len(img), -1), self._steps, adjoint).reshape(img.shape)
            img = np.moveaxis(img, 0, axis)
        return img.reshape(x.shape)

    def _band_shifts(self) -> tuple:
        """(band, shift) of every coefficient: its band's index in ``_haar_bands`` order and how far
        its wavelet lies from the band's first one, in samples of the flattened signal.

        In 2-D, band pair (r, c), numbered r * (L + 1) + c, holds the products
        of a row band r and a column band c.
        """
        length = self.signal_shape[0]
        starts, sizes = self._bands
        band = np.repeat(np.arange(len(sizes)), sizes)
        # a band's wavelets tile the axis
        shift = (np.arange(length) - starts[band]) * (length // sizes)[band]
        if len(self.signal_shape) == 2:
            band = (band[:, None] * len(sizes) + band).ravel()
            shift = (shift[:, None] * length + shift).ravel()
        return band, shift

    def _forward(self, x):
        return self._apply(x, adjoint=False)

    def _adjoint(self, y):
        return self._apply(y, adjoint=True)


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

    def _conjugate_rows(self):
        # a real sparsity basis keeps x real on its way into the measurement
        if self.sparsity.field == "real":
            return self.measurement.conjugate_rows()
        return super()._conjugate_rows()

    def _column_shifts(self):
        # column k is the measured k-th wavelet; the wavelets of one Haar band are translates of
        # each other, also as flattened images, and a translate changes every DFT coefficient by
        # a phase only. A wavelet's translate is one shift of the flattened signal, which the
        # measurement reads per axis of its own shape; no band's wavelets wrap around a row end,
        # as a 1-D wavelet lies within one row or spans whole rows and a 2-D one keeps to its
        # columns
        if isinstance(self.measurement, _Dft) and isinstance(self.sparsity, _Haar):
            return (self.measurement.signal_shape, *self.sparsity._band_shifts())
        return None


def make_dft_operator(n: int, *, two_dim: bool = False) -> UnitaryOperator:
    """Unitary discrete Fourier transform of length n (power of two, n >= 2).

    With ``two_dim`` the operator acts on row-major flattened square images and
    n must be a perfect square with power-of-two side.
    """
    n = _integer("n", n)
    shape = (_square_side(n),) * 2 if two_dim else (n,)
    if not _is_power_of_two(shape[0]) or shape[0] < 2:
        length = "side length" if two_dim else "n"
        raise ValueError(f"{length} must be a power of two >= 2, got {shape[0]}")
    return _Dft(shape)


def make_haar_operator(n: int, levels: int, *, two_dim: bool = False) -> UnitaryOperator:
    """Orthonormal Haar analysis operator of the given decomposition depth.

    levels=0 is the identity. 1D requires n divisible by 2**levels; the 2D
    variant acts separably on a row-major flattened square image whose side
    must be divisible by 2**levels.
    """
    n = _integer("n", n)
    levels = _integer("levels", levels)
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if two_dim:
        shape = (_square_side(n),) * 2
    elif n < 1:
        raise ValueError(f"n must be positive, got {n}")
    else:
        shape = (n,)
    if shape[0] % (1 << levels) != 0:
        length = f"side {shape[0]}" if two_dim else f"n={n}"
        raise ValueError(f"{length} not divisible by 2**{levels}")
    return _Haar(shape, levels)


def compose_measurement_basis(
    measurement: UnitaryOperator, sparsity: UnitaryOperator
) -> UnitaryOperator:
    """Compose measurement-forward with sparsity-adjoint into one unitary map.

    The result applies sparsity.adjoint then measurement.forward, so that a
    prior expressed on sparsity coefficients is measured in the measurement
    basis.
    """
    return _Composed(measurement, sparsity)

