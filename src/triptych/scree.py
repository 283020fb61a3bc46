"""Eigenvalue scree tables: per-axis inertia shares and cumulative totals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _unit_scaled

__all__ = ["ScreeRow", "ScreeTable"]


def _checked_eigenvalues(eigenvalues) -> np.ndarray:
    """A spectrum as a finite, nonnegative, nonincreasing float vector."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise ValueError("eigenvalues must be a vector")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues contain non-finite entries")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise ValueError("eigenvalues must be nonincreasing")
    return lam


@dataclass(frozen=True)
class ScreeRow:
    index: int          # 1-based axis number
    eigenvalue: float
    inertia_pct: float  # 100 * eigenvalue / total
    cumulative_pct: float


@dataclass(frozen=True)
class ScreeTable:
    """Eigenvalue / inertia% / cumulative% report for a decomposition.

    Percentages are taken against the sum of the listed eigenvalues, so
    the final cumulative entry is 100 up to roundoff.  They are computed
    on the spectrum scaled by a power of two, so they are defined at any
    scale; the ``eigenvalue`` column keeps the values as given.
    """

    rows: tuple[ScreeRow, ...]

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "ScreeTable":
        lam = _checked_eigenvalues(eigenvalues)
        if lam.size == 0:
            return cls(rows=())
        unit, _ = _unit_scaled(lam)
        total = float(np.sum(unit))
        if total <= 0.0:
            raise ValueError("total inertia must be positive for a scree table")
        pct = 100.0 * unit / total
        cum = np.cumsum(pct)
        return cls(
            rows=tuple(
                ScreeRow(i + 1, float(lam[i]), float(pct[i]), float(cum[i]))
                for i in range(lam.size)
            )
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def format(self) -> str:
        """Fixed-precision text table: eigenvalues to 5 decimals,
        percentages to 2."""
        lines = ["axis\teigenvalue\tinertia_pct\tcumulative_pct"]
        for row in self.rows:
            lines.append(
                f"{row.index}\t{row.eigenvalue:.5f}\t"
                f"{row.inertia_pct:.2f}\t{row.cumulative_pct:.2f}"
            )
        return "\n".join(lines)
