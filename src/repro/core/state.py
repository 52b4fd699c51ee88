"""Sparse commodity-major model core: the :class:`ModelState` array API.

At fixed graph density a dense ``(J, E)`` iteration grows like
``J * (E + V) = O(J^2)`` while the *allowed* cells (the union of the
commodities' subgraph edges) grow only like ``O(J)``.  :class:`ModelState`
therefore runs every phase of the paper's Section-5 iteration as one pass
over the ``P`` allowed cells and nothing else.

Cell-space layout
-----------------

The cell list holds every allowed ``(j, e)`` ordered by ``(j, e)``;
node ``j*V + v`` and edge ``j*E + e`` are the flat ids of the commodity
rows.  Per-cell vectors of length ``P`` -- the edge marginals ``delta`` of
eq. (15), the blocked mask of eq. (18) -- live in this order.

* **Forward wave** (eq. (3)).  Edges are levelled by the longest-path
  depth of their head, so every in-edge of a node lands in one level and
  the node's traffic is written once.
* **Reverse wave** (eqs. (9), (15)).  Edges are levelled by the height of
  their tail above the sink, so a node's out-edges form one row.  Each
  level computes eq. (15)'s bracket ``dadf * c + beta * dA/dr_head`` per
  entry; that bracket *is* ``delta`` on the entry's cell, so the wave
  keeps it and scatters it once into the cell-space ``delta`` vector --
  no ``(J, E)`` table is ever built.
* **Blocking** (eq. (18)) tests every cell elementwise and floods the
  tags over the same reverse levels, starting at the first level that
  holds an improper edge.
* **Gamma** (eqs. (14)-(17)) runs on :attr:`ModelState.gamma_plan`, the
  branch nodes' out-edge cells in CSR layout (see
  :func:`repro.core.gradient.apply_gamma_batch`).

Bit-identity with the scalar reference
--------------------------------------

The ``*_scalar`` functions accumulate floating-point sums in a specific
order, and float addition is not associative, so every sum here is a
*row sum in entry order*: within a level, entries are stored row by row
and, inside a row, in the scalar visitation order (``commodity_out_edges``
order for the reverse wave and Gamma).  :func:`row_sums` is
``np.bincount(rows, weights=x)``, which adds ``x[k]`` onto
``out[rows[k]]`` for ``k = 0, 1, ...`` starting from ``+0.0`` -- the same
``((0 + c1) + c2) + ...`` association as the scalar loops, which start
their accumulators at ``0.0`` too.  A level whose rows all hold a single
entry skips the sum and writes ``0.0 + contrib``: the zero-accumulator
sum of one term, bitwise, including for ``-0.0``.

* Skipped zero contributions (the scalar walks skip ``phi == 0`` edges)
  add an exact ``+0.0`` to a non-negative partial sum.
* **Usage** (eq. (4)): the cells are ordered by ``(j, e)``, so summing
  ``contrib * cost`` by edge adds each edge's commodities in ascending
  ``j``, the dense axis-0 reduce's association.  **Node usage** (eq. (5))
  sums each node's out-edge usage in ascending edge id, the order
  ``np.add.at`` over ``edge_tail`` accumulates in.

``GradientAlgorithm.step_reference`` and the property tests pin all of
this against the scalar functions, byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.transform import CommodityGammaPlan, ExtendedNetwork

__all__ = ["ModelState", "Wave", "WaveLevel", "row_sums"]


class WaveLevel(NamedTuple):
    """One depth level of a flattened cross-commodity wave.

    ``nodes`` are the level's rows (flat ids, ascending, hence grouped by
    commodity).  The level's entries are ``[start, stop)`` of its
    :class:`Wave`'s entry arrays, stored row by row; ``tails`` / ``heads``
    / ``gains`` are views of that span and ``rows`` holds each entry's row.
    ``indptr`` / ``starts`` are the row boundaries (both ``None`` when
    every row holds a single entry).
    """

    nodes: np.ndarray  # (n,) flat node ids (j*V + v), ascending
    tails: np.ndarray  # (p,) flat tail node ids
    heads: np.ndarray  # (p,) flat head node ids
    gains: np.ndarray  # (p,) gain[j, e]
    start: int
    stop: int
    indptr: Optional[np.ndarray]  # (n + 1,) row boundaries; None if 1:1
    starts: Optional[np.ndarray]  # (n,) indptr[:-1]; None if 1:1
    rows: np.ndarray  # (p,) row of each entry, in [0, n)


class Wave(NamedTuple):
    """One direction of a wave: its levels in order, and their entries
    concatenated in wave order.

    Per-iteration gathers the sweep needs for every entry (``phi``,
    ``dadf * c``) run once over these arrays; each level then reads its
    ``[start, stop)`` slice.  ``cell_pos`` is each entry's position in the
    cell list.
    """

    levels: Tuple[WaveLevel, ...]
    edges: np.ndarray  # (p,) flat edge ids (j*E + e)
    raw: np.ndarray  # (p,) plain edge ids
    tails: np.ndarray  # (p,) flat tail node ids
    heads: np.ndarray  # (p,) flat head node ids
    gains: np.ndarray  # (p,) gain[j, e]
    costs: np.ndarray  # (p,) cost[j, e]
    cell_pos: np.ndarray  # (p,) position in the cell list


_ENTRY_FIELDS = ("edges", "raw", "tails", "heads", "gains", "costs", "cell_pos")


def _level_split(keys: np.ndarray) -> List[Tuple[int, int]]:
    """``[(s, e), ...]`` slices of equal consecutive values in sorted ``keys``."""
    if keys.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [keys.size]))
    return list(zip(starts.tolist(), ends.tolist()))


def row_sums(rows: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """``y[i] = sum(x[k] for rows[k] == i)``, each ``x[k]`` added in entry
    order onto ``y[i] = +0.0``: ``np.bincount``'s sequential loop."""
    if rows.size == 0:
        return np.zeros(n)  # bincount of no entries is an int array
    return np.bincount(rows, weights=x, minlength=n)


def _row_sums(level: WaveLevel, contrib: np.ndarray) -> np.ndarray:
    """Per-row sums of a level's entry contributions, from ``0.0``."""
    if level.indptr is None:
        # one entry per row: the zero-accumulator sum of a single term
        return 0.0 + contrib
    return row_sums(level.rows, contrib, level.nodes.size)


def _make_wave(
    levels: List[Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]],
) -> Wave:
    """A :class:`Wave` from ``(nodes, row of each entry, entry arrays)``
    per level, each level's entries already stored row by row."""
    cat = {
        name: np.concatenate([entries[name] for _, _, entries in levels])
        if levels
        else np.empty(0, dtype=float if name in ("gains", "costs") else np.intp)
        for name in _ENTRY_FIELDS
    }
    out = []
    stop = 0
    for nodes, rows, _entries in levels:
        start, stop = stop, stop + rows.size
        counts = np.bincount(rows, minlength=nodes.size)
        if np.all(counts == 1):
            indptr = starts = None
        else:
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
            starts = indptr[:-1]
        out.append(
            WaveLevel(
                nodes=nodes,
                tails=cat["tails"][start:stop],
                heads=cat["heads"][start:stop],
                gains=cat["gains"][start:stop],
                start=start,
                stop=stop,
                indptr=indptr,
                starts=starts,
                rows=rows,
            )
        )
    return Wave(
        levels=tuple(out),
        edges=cat["edges"],
        raw=cat["raw"],
        tails=cat["tails"],
        heads=cat["heads"],
        gains=cat["gains"],
        costs=cat["costs"],
        cell_pos=cat["cell_pos"],
    )


def _cell_levels(wave: Wave, num_cells: int) -> np.ndarray:
    """The index of the level holding each cell (-1: none)."""
    levels = np.full(num_cells, -1, dtype=np.intp)
    for b, level in enumerate(wave.levels):
        levels[wave.cell_pos[level.start : level.stop]] = b
    return levels


class ModelState:
    """Flat commodity-major hot state of one :class:`ExtendedNetwork`.

    Obtain via :meth:`ModelState.of` -- the instance is cached on the
    network.  The structure depends only on the network's *topology* (the
    allowed edge sets, plans, gains and costs), which never mutates in
    place: scalar patches touch capacities/rates only and structural
    events splice a brand-new network, so an id-keyed cache is safe across
    epochs.
    """

    def __init__(self, ext: ExtendedNetwork) -> None:
        self.ext = ext
        J, E, V = ext.num_commodities, ext.num_edges, ext.num_nodes
        self.num_commodities = J
        self.num_edges = E
        self.num_nodes = V
        self.edge_tail = ext.edge_tail

        # -- cell list: every allowed (j, e), ordered by (j, e) ----------------
        cell_parts = [
            np.asarray(ext.commodity_edge_arrays[j], dtype=np.intp) for j in range(J)
        ]
        cell_counts = np.array([part.size for part in cell_parts], dtype=np.intp)
        raw_cells = (
            np.concatenate(cell_parts) if cell_parts else np.empty(0, dtype=np.intp)
        )
        cell_j = np.repeat(np.arange(J, dtype=np.intp), cell_counts)
        self.cell_raw = raw_cells
        self.cell_edges = cell_j * E + raw_cells
        self.cell_tails = cell_j * V + ext.edge_tail[raw_cells]
        self.cell_heads = cell_j * V + ext.edge_head[raw_cells]
        self.cell_cost = np.ascontiguousarray(ext.cost[cell_j, raw_cells])
        self.cell_gain = np.ascontiguousarray(ext.gain[cell_j, raw_cells])
        self.cell_g_tail = np.ascontiguousarray(
            ext.node_potentials[cell_j, ext.edge_tail[raw_cells]]
        )
        self.cell_g_head = np.ascontiguousarray(
            ext.node_potentials[cell_j, ext.edge_head[raw_cells]]
        )
        self.num_cells = int(self.cell_edges.size)

        # position of a flat edge in the cell list
        cell_lookup = np.full(J * E, -1, dtype=np.intp)
        cell_lookup[self.cell_edges] = np.arange(self.num_cells, dtype=np.intp)

        # -- depth levelling ---------------------------------------------------
        fwd_rows: List[Tuple[np.ndarray, ...]] = []
        rev_rows: List[Tuple[np.ndarray, ...]] = []
        for j in range(J):
            plan = ext.flow_plans[j]
            p = plan.edges.size
            if p == 0:
                continue
            depth = np.zeros(V, dtype=np.intp)
            height = np.zeros(V, dtype=np.intp)
            offsets = plan.offsets
            nblocks = len(offsets) - 1
            for b in range(nblocks):
                s, e = offsets[b], offsets[b + 1]
                np.maximum.at(depth, plan.heads[s:e], depth[plan.tails[s:e]] + 1)
            for b in range(nblocks - 1, -1, -1):
                s, e = offsets[b], offsets[b + 1]
                np.maximum.at(height, plan.tails[s:e], height[plan.heads[s:e]] + 1)
            pos = np.arange(p, dtype=np.intp)
            j_col = np.full(p, j, dtype=np.intp)
            common = (pos, plan.edges, plan.tails, plan.heads, plan.gains, plan.costs)
            fwd_rows.append((depth[plan.heads], j_col) + common)
            rev_rows.append((height[plan.tails], j_col) + common)

        def build_wave(rows: List[Tuple[np.ndarray, ...]], by_head: bool) -> Wave:
            if not rows:
                return _make_wave([])
            key, j_col, pos, edges, tails, heads, gains, costs = (
                np.concatenate([r[k] for r in rows]) for k in range(8)
            )
            scatter = j_col * V + (heads if by_head else tails)
            # level, then row (flat node id), then scalar visitation order:
            # each row's entries are contiguous and in the scalar order
            order = np.lexsort((pos, scatter, key))
            key, j_col, scatter = key[order], j_col[order], scatter[order]
            edges, tails, heads = edges[order], tails[order], heads[order]
            gains, costs = gains[order], costs[order]
            flat_edges = j_col * E + edges
            levels = []
            for s, e in _level_split(key):
                nodes, rows_of = np.unique(scatter[s:e], return_inverse=True)
                levels.append(
                    (
                        nodes,
                        rows_of,
                        dict(
                            edges=flat_edges[s:e],
                            raw=edges[s:e],
                            tails=j_col[s:e] * V + tails[s:e],
                            heads=j_col[s:e] * V + heads[s:e],
                            gains=gains[s:e],
                            costs=costs[s:e],
                            cell_pos=cell_lookup[flat_edges[s:e]],
                        ),
                    )
                )
            return _make_wave(levels)

        self.forward = build_wave(fwd_rows, by_head=True)
        self.reverse = build_wave(rev_rows, by_head=False)
        # each cell's reverse level, where the blocking flood may start
        self.cell_level = _cell_levels(self.reverse, self.num_cells)
        if (self.cell_level < 0).any():
            # the reverse wave must emit delta on every allowed cell
            raise ValueError("flow plans do not cover every allowed cell")

        # -- Gamma: every commodity's branch-node rows, flat-indexed -------------
        gamma = ext.gamma_plans
        empty = [np.empty(0, dtype=np.intp)]
        targets = np.concatenate(
            [g.targets + j * E for j, g in enumerate(gamma)] or empty
        )
        widths = np.concatenate([np.diff(g.indptr) for g in gamma] or empty)
        self.gamma_plan = CommodityGammaPlan(
            nodes=np.concatenate(
                [g.nodes + j * V for j, g in enumerate(gamma)] or empty
            ),
            targets=targets,
            indptr=np.concatenate(([0], np.cumsum(widths))).astype(np.intp),
            cells=cell_lookup[targets],
        )

    # -- construction / caching ----------------------------------------------------
    @classmethod
    def of(cls, ext: ExtendedNetwork) -> "ModelState":
        """The (cached) array state of ``ext``; builds on first use."""
        state = getattr(ext, "_model_state", None)
        if state is None:
            state = cls(ext)
            ext._model_state = state
        return state

    # -- kernels ----------------------------------------------------------------------
    def solve_traffic_into(self, t_flat: np.ndarray, phi_flat: np.ndarray) -> None:
        """Eq. (3) forward wave over ``t_flat`` (pre-filled with external
        inputs), one row sum per depth level."""
        wave = self.forward
        phi = phi_flat[wave.edges]
        for level in wave.levels:
            contrib = t_flat[level.tails]
            contrib *= phi[level.start : level.stop]
            contrib *= level.gains
            t_flat[level.nodes] = _row_sums(level, contrib)

    def resource_usage(
        self, phi_flat: np.ndarray, t_flat: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eqs. (4)-(5) from the allowed cells only: ``O(P + E)``, not
        ``O(J * E)``.  Each edge sums its cells in ascending ``j``."""
        contrib = t_flat[self.cell_tails] * phi_flat[self.cell_edges]
        contrib *= self.cell_cost
        edge_usage = row_sums(self.cell_raw, contrib, self.num_edges)
        return edge_usage, self.node_usage(edge_usage)

    def node_usage(self, edge_usage: np.ndarray) -> np.ndarray:
        """Eq. (5): sum each node's out-edge usage in ascending edge id."""
        return row_sums(self.edge_tail, edge_usage, self.num_nodes)

    def marginal_costs_into(
        self,
        dadr_flat: np.ndarray,
        phi_flat: np.ndarray,
        dadf: np.ndarray,
        delta: Optional[np.ndarray] = None,
    ) -> None:
        """Eq. (9) reverse wave into ``dadr_flat`` (pre-zeroed).

        Each entry's bracket ``dadf * c + beta * dA/dr_head`` is eq. (15)'s
        ``delta`` on its cell; with a ``(P,)`` ``delta`` buffer the wave
        stores it there, covering every cell.
        """
        wave = self.reverse
        phi = phi_flat[wave.edges]
        bracket = dadf[wave.raw] * wave.costs
        for level in wave.levels:
            # complete the level's brackets now that their heads are final
            part = bracket[level.start : level.stop]
            part += level.gains * dadr_flat[level.heads]
            contrib = phi[level.start : level.stop] * part
            dadr_flat[level.nodes] = _row_sums(level, contrib)
        if delta is not None:
            delta[wave.cell_pos] = bracket

    def marginal_costs(
        self,
        phi_flat: np.ndarray,
        dadf: np.ndarray,
        delta: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        dadr = np.zeros((self.num_commodities, self.num_nodes), dtype=float)
        self.marginal_costs_into(dadr.reshape(-1), phi_flat, dadf, delta)
        return dadr

    def edge_marginals_dense(self, delta: np.ndarray) -> np.ndarray:
        """A cell-space ``delta`` as a ``(J, E)`` table.

        Allowed cells carry ``delta``; off-graph cells are 0.0 (the dense
        :func:`repro.core.marginals.edge_marginals` leaves a meaningless
        ``dadr[head]`` term there, which no consumer reads).
        """
        table = np.zeros((self.num_commodities, self.num_edges), dtype=float)
        table.reshape(-1)[self.cell_edges] = delta
        return table

    def blocked_sets(
        self,
        blocked: np.ndarray,
        phi_flat: np.ndarray,
        t_flat: np.ndarray,
        dadr_flat: np.ndarray,
        delta: np.ndarray,
        eta: float,
        phi_zero_tol: float = 1e-12,
        phi_positive_tol: float = 1e-12,
    ) -> bool:
        """Eq. (18) blocked sets; returns whether anything is blocked.

        ``blocked`` and ``delta`` are cell-space ``(P,)`` vectors;
        ``blocked`` is written in full when anything is blocked.  Identical
        comparisons to :func:`repro.core.blocking.compute_blocked_sets_scalar`;
        the tag flood is a boolean OR per reverse-level row, so its order is
        free.
        """
        if self.num_cells == 0:
            return False
        ft = self.cell_tails
        fh = self.cell_heads
        frac = phi_flat[self.cell_edges]
        t_tail = t_flat[ft]
        dadr_tail = dadr_flat[ft]
        carries = frac > phi_positive_tol
        uphill = self.cell_g_tail * dadr_tail <= self.cell_g_head * dadr_flat[fh]
        movable = t_tail > 0.0
        threshold = (eta / np.where(movable, t_tail, 1.0)) * (delta - dadr_tail)
        improper = carries & uphill & movable & (frac >= threshold)
        if not improper.any():
            # no improper link anywhere => no tag can flood => nothing blocked
            return False

        # tags are all-False until the first level holding an improper edge,
        # so every earlier level's flood pass is a no-op; start there
        first = int(self.cell_level[improper].min())
        wave = self.reverse
        improper = improper[wave.cell_pos]
        carries = carries[wave.cell_pos]
        tags = np.zeros(self.num_commodities * self.num_nodes, dtype=bool)
        for level in wave.levels[first:]:
            at = slice(level.start, level.stop)
            contrib = improper[at] | (carries[at] & tags[level.heads])
            # every out-edge of a tail lies in this level: one write per row
            if level.starts is None:
                tags[level.nodes] = contrib
            else:
                tags[level.nodes] = np.logical_or.reduceat(contrib, level.starts)
        cells = (frac <= phi_zero_tol) & tags[fh]
        blocked[:] = cells
        return bool(cells.any())
