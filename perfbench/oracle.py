"""The benchmark's own correctness oracle: skylines by definition.

Row ``q`` dominates row ``p`` under a query when ``q`` is no worse on every
TO attribute (smaller is better), ``q``'s value equals or precedes ``p``'s
in the transitive closure of every PO attribute's preference DAG, and the
two rows differ somewhere.  The skyline is every live row no other live row
dominates.

Rows are visited in the order of a key that strictly decreases along
dominance (TO sum, then the number of values preferred over each PO value),
so a row can only be dominated by rows visited before it; each block of rows
is tested against every earlier skyline row and against itself.

:meth:`Oracle.reduce` applies the same definition with no PO preferences at
all, where rows compare only when their PO values are equal.  A row
dominated there is dominated under every query (every preference relation
contains equality), so per-query checks may start from its survivors.  This
code shares nothing with the program under test.
"""

from __future__ import annotations

import numpy as np

BLOCK = 512


def closure(values: list[int], edges) -> np.ndarray:
    """``better[i, j]``: value ``i`` is strictly preferred to value ``j``."""
    index = {value: position for position, value in enumerate(values)}
    reach = np.zeros((len(values), len(values)), dtype=bool)
    for better, worse in edges:
        reach[index[better], index[worse]] = True
    # Warshall: after step k, paths through intermediates <= k are closed.
    for k in range(len(values)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


class Oracle:
    """Definition-based skylines over a fixed PO value order per attribute."""

    def __init__(self, num_to: int, po_values: list[list[int]]) -> None:
        self.num_to = num_to
        self.po_values = [sorted(values) for values in po_values]
        self._codes = [
            {value: code for code, value in enumerate(values)} for values in self.po_values
        ]

    def encode(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Rows (schema order, TO first) as a TO matrix and a PO code matrix."""
        to = np.array([row[: self.num_to] for row in rows], dtype=float).reshape(len(rows), self.num_to)
        codes = np.array(
            [
                [mapping[value] for mapping, value in zip(self._codes, row[self.num_to :])]
                for row in rows
            ],
            dtype=np.int64,
        ).reshape(len(rows), len(self._codes))
        return to, codes

    def reduce(self, to: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Positions of the rows no row dominates under *any* preferences.

        Without preferences only rows with equal PO values compare, so each
        group of equal PO values is reduced on its own.
        """
        none = [np.zeros((len(v), len(v)), dtype=bool) for v in self.po_values]
        _, group = np.unique(codes, axis=0, return_inverse=True)
        group = group.reshape(-1)
        order = np.argsort(group, kind="stable")
        bounds = np.flatnonzero(np.diff(group[order])) + 1
        kept = [
            members[self._skyline(to[members], codes[members], none)]
            for members in np.split(order, bounds)
        ]
        return np.sort(np.concatenate(kept))

    def skyline(self, to: np.ndarray, codes: np.ndarray, overrides: dict[str, dict], within=None) -> np.ndarray:
        """Row positions of the skyline under ``overrides`` (one DAG per PO attribute, in order).

        ``within`` (from :meth:`reduce` over the same rows) restricts the
        search to rows that can be in any skyline.
        """
        betters = [
            closure(values, spec["edges"])
            for values, spec in zip(self.po_values, overrides.values())
        ]
        if within is None:
            return self._skyline(to, codes, betters)
        return np.sort(within[self._skyline(to[within], codes[within], betters)])

    def _skyline(self, to: np.ndarray, codes: np.ndarray, betters: list[np.ndarray]) -> np.ndarray:
        ancestors = [better.sum(axis=0) for better in betters]
        rank = sum((count[codes[:, a]] for a, count in enumerate(ancestors)), np.zeros(len(to), dtype=np.int64))
        order = np.lexsort((rank, to.sum(axis=1)))
        window = np.empty(0, dtype=np.int64)
        for start in range(0, len(order), BLOCK):
            block = order[start : start + BLOCK]
            alive = ~self._dominated(to, codes, betters, block, window)
            block = block[alive]
            alive = ~self._dominated(to, codes, betters, block, block)
            window = np.concatenate([window, block[alive]])
        return np.sort(window)

    @staticmethod
    def _dominated(to, codes, betters, targets, members) -> np.ndarray:
        """Per target: is it dominated by any member (row positions)?"""
        if not len(targets) or not len(members):
            return np.zeros(len(targets), dtype=bool)
        shape = (len(targets), len(members))
        no_worse = np.ones(shape, dtype=bool)
        same = np.ones(shape, dtype=bool)
        for column in range(to.shape[1]):
            t_value = to[targets, column][:, None]
            m_value = to[members, column][None, :]
            no_worse &= m_value <= t_value
            same &= m_value == t_value
        for attribute, better in enumerate(betters):
            t_code = codes[targets, attribute][:, None]
            m_code = codes[members, attribute][None, :]
            equal = m_code == t_code
            no_worse &= equal | better[m_code, t_code]
            same &= equal
        return (no_worse & ~same).any(axis=1)
