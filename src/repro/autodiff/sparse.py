"""Row-sparse gradients for embedding tables.

Every embedding model in the paper trains by gathering a few hundred
entity/relation rows per minibatch, yet a dense backward pays
full-vocabulary cost per step: ``gather``'s backward would allocate a
``zeros_like`` of the whole table and the optimizer would then update
every row.  A :class:`SparseGrad` carries only ``(indices, values)``
pairs instead, so the cost of one training step is proportional to the
batch size rather than the table size.

Accumulation is append-only: each further gather of the same table adds
its ``(indices, values)`` piece to a list without copying, and the
pieces are concatenated once, when the gradient is first read.

Duplicate indices (the same entity appearing many times in one batch, as
negative sampling produces) are *coalesced* by one kernel,
:func:`_coalesce_rows`: a bitmap over the table's rows gives the sorted
unique rows, and one sparse matrix product sums each row's values (a
CSR segment sum).  :meth:`SparseGrad.coalesce` memoizes its result, so
the optimizer update, its touched-row bookkeeping and the traced epoch
gauges share one coalesce per step.

Densifying a :class:`SparseGrad` (:meth:`SparseGrad.to_dense`) loses the
O(batch) saving for that step; each one increments the registry counter
``autodiff.sparse_densified``.

The sparse path is enabled by default and can be toggled globally (for
benchmarking the dense baseline) via :func:`set_sparse_gradients`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

__all__ = [
    "SparseGrad",
    "set_sparse_gradients",
    "sparse_gradients_enabled",
    "scatter_rows",
]

_SPARSE_ENABLED = True


def set_sparse_gradients(enabled: bool) -> bool:
    """Globally enable/disable the sparse gradient path.

    Returns the previous setting so callers can restore it::

        previous = set_sparse_gradients(False)
        try:
            ...  # dense baseline
        finally:
            set_sparse_gradients(previous)
    """
    global _SPARSE_ENABLED
    previous = _SPARSE_ENABLED
    _SPARSE_ENABLED = bool(enabled)
    return previous


def sparse_gradients_enabled() -> bool:
    """Whether ``gather`` on a leaf tensor emits :class:`SparseGrad`."""
    return _SPARSE_ENABLED


def _coalesce_rows(indices: np.ndarray, values: np.ndarray,
                   n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` over duplicate ``indices`` (CSR segment sum).

    Returns the sorted unique rows of a table with ``n_rows`` rows and,
    per row, the sum of its values in input order.  The bitmap and the
    slot map cost O(n_rows); the sum is one ``(unique, nnz) @ (nnz, d)``
    product whose column ``j`` holds a single 1 at the slot of
    ``indices[j]``.
    """
    nnz = indices.shape[0]
    if nnz == 0:
        return indices, values
    touched = np.zeros(n_rows, dtype=bool)
    touched[indices] = True
    rows = np.flatnonzero(touched)
    slot_of = np.empty(n_rows, dtype=np.intp)
    slot_of[rows] = np.arange(rows.shape[0])
    segments = scipy.sparse.csc_matrix(
        (np.ones(nnz), slot_of[indices], np.arange(nnz + 1)),
        shape=(rows.shape[0], nnz),
    )
    width = math.prod(values.shape[1:])
    summed = segments @ values.reshape(nnz, width)
    return rows, summed.reshape((rows.shape[0],) + values.shape[1:])


def scatter_rows(out: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``out[indices] += values`` with duplicate indices summed.

    Coalesces first so the scatter is a plain (fast) fancy-index add
    instead of ``np.add.at``.
    """
    rows, summed = _coalesce_rows(
        np.asarray(indices, dtype=np.int64).reshape(-1),
        np.asarray(values, dtype=np.float64).reshape((-1,) + out.shape[1:]),
        out.shape[0],
    )
    out[rows] += summed


class SparseGrad:
    """Gradient of a row-gather: ``values[i]`` flows into row ``indices[i]``.

    ``indices`` is 1-D (rows along axis 0 of the dense ``shape``);
    ``values`` has shape ``(len(indices),) + shape[1:]``.  The object is
    array-like enough for diagnostics (``shape``, ``__array__``) but the
    optimizers consume it directly via :meth:`coalesce` without ever
    materializing the dense matrix.
    """

    __slots__ = ("shape", "_pieces", "_canonical", "_coalesced")

    def __init__(self, indices, values, shape: tuple[int, ...], coalesced: bool = False):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(
            (indices.shape[0],) + tuple(shape[1:])
        )
        self.shape = tuple(shape)
        self._pieces = [(indices, values)]
        # True when the indices are already unique and sorted.
        self._canonical = bool(coalesced)
        self._coalesced: SparseGrad | None = None

    def __repr__(self) -> str:
        return f"SparseGrad(nnz_rows={len(self.indices)}, shape={self.shape})"

    def _joined(self) -> tuple[np.ndarray, np.ndarray]:
        """The one ``(indices, values)`` pair, concatenating the pieces
        merged so far (once)."""
        if len(self._pieces) > 1:
            self._pieces = [(np.concatenate([i for i, _ in self._pieces]),
                             np.concatenate([v for _, v in self._pieces]))]
        return self._pieces[0]

    @property
    def indices(self) -> np.ndarray:
        return self._joined()[0]

    @property
    def values(self) -> np.ndarray:
        return self._joined()[1]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self):
        return self._pieces[0][1].dtype

    def coalesce(self) -> "SparseGrad":
        """An equivalent gradient with unique, sorted indices.

        Computed once and memoized until the next :meth:`merged`.
        """
        if self._canonical:
            return self
        if self._coalesced is None:
            rows, values = _coalesce_rows(*self._joined(), self.shape[0])
            self._coalesced = SparseGrad(rows, values, self.shape, coalesced=True)
        return self._coalesced

    def merged(self, other: "SparseGrad") -> "SparseGrad":
        """Accumulate ``other`` into this gradient (same dense shape) and
        return it.  Appends ``other``'s pieces without copying them."""
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge sparse grads of shapes {self.shape} and {other.shape}"
            )
        self._pieces.extend(other._pieces)
        self._canonical = False
        self._coalesced = None
        return self

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense gradient (densification)."""
        from ..obs.registry import get_registry  # repro.obs imports this module

        get_registry().counter("autodiff.sparse_densified").inc()
        dense = np.zeros(self.shape, dtype=np.float64)
        grad = self.coalesce()
        dense[grad.indices] = grad.values
        return dense

    def add_to(self, dense: np.ndarray) -> None:
        """Scatter-add this gradient into an existing dense array."""
        grad = self.coalesce()
        dense[grad.indices] += grad.values

    def copy(self) -> "SparseGrad":
        return SparseGrad(
            self.indices.copy(), self.values.copy(), self.shape, self._canonical
        )

    def __array__(self, dtype=None, copy=None):
        dense = self.to_dense()
        return dense.astype(dtype) if dtype is not None else dense

    def __getitem__(self, key):
        # Diagnostics convenience (O(dense) — not for hot paths).
        return self.to_dense()[key]
