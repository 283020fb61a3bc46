"""Edge-list generators shared by the graph, CLI and memory tests."""

import numpy as np


def ring_edges(n):
    return np.column_stack([np.arange(n), (np.arange(n) + 1) % n])


def ring_with_chords(rng, n, offset=0):
    """Cycle on n nodes plus up to 2n random chords, as sorted unique
    (u, v) rows with u < v, node numbers shifted by ``offset``."""
    chords = rng.integers(0, n, (2 * n, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    edges = np.unique(np.sort(np.vstack([ring_edges(n), chords]), axis=1), axis=0)
    return edges + offset


def write_edges(path, edges):
    """Write an edge array as a headerless edge-list file, node i as 'v{i}'."""
    path.write_text("".join(f"v{a},v{b}\n" for a, b in np.asarray(edges).tolist()))
    return path
