"""GF(2) boundary-matrix reduction kernel.

Standard left-to-right column reduction with the clearing shortcut: columns
are processed one dimension at a time from the top dimension down, and when a
column pairs with row i, column i is known to be a birth and is skipped.

A column under reduction lives in a max-heap of row indices. Popping equal
indices in pairs performs the GF(2) cancellation lazily; when the surviving
low already belongs to an earlier column, that column's stored reduced form
is pushed and the loop continues. This keeps column additions cheap even when
many plateau cells share a level.

The kernel is plain Python over numpy arrays. Level-set rasters take
persistence.levelset_barcode instead; the reduction serves the adjacency
route and is the reference the raster route is tested against.
"""

from __future__ import annotations

import numpy as np


def _push(heap, hn, v):
    if hn >= heap.shape[0]:
        bigger = np.empty(heap.shape[0] * 2, np.int64)
        bigger[:hn] = heap[:hn]
        heap = bigger
    heap[hn] = v
    i = hn
    while i > 0:
        p = (i - 1) >> 1
        if heap[p] < heap[i]:
            heap[p], heap[i] = heap[i], heap[p]
            i = p
        else:
            break
    return heap, hn + 1


def _pop(heap, hn):
    """Remove the max (caller reads heap[0] first); returns the new size."""
    hn -= 1
    heap[0] = heap[hn]
    i = 0
    while True:
        left = 2 * i + 1
        right = left + 1
        big = i
        if left < hn and heap[left] > heap[big]:
            big = left
        if right < hn and heap[right] > heap[big]:
            big = right
        if big == i:
            break
        heap[i], heap[big] = heap[big], heap[i]
        i = big
    return hn


def _reduce_kernel(indptr, indices, order, use_clearing):
    n = indptr.shape[0] - 1
    pivot_owner = np.full(n, -1, np.int64)
    cleared = np.zeros(n, np.uint8)
    is_zero = np.zeros(n, np.uint8)

    pair_rows = np.empty(n, np.int64)
    pair_cols = np.empty(n, np.int64)
    n_pairs = 0

    # reduced columns of pivot owners, concatenated ascending in a pool
    col_start = np.zeros(n, np.int64)
    col_len = np.full(n, -1, np.int64)
    pool = np.empty(max(indices.shape[0] * 2, 16), np.int64)
    pool_n = 0

    heap = np.empty(64, np.int64)
    temp = np.empty(64, np.int64)

    for oi in range(order.shape[0]):
        j = order[oi]
        if use_clearing and cleared[j] == 1:
            continue
        hn = 0
        for t in range(indptr[j], indptr[j + 1]):
            heap, hn = _push(heap, hn, indices[t])
        while True:
            # surviving max after pairwise GF(2) cancellation
            low = np.int64(-1)
            while hn > 0:
                v = heap[0]
                cnt = 0
                while hn > 0 and heap[0] == v:
                    hn = _pop(heap, hn)
                    cnt += 1
                if cnt & 1:
                    low = v
                    break
            if low == -1:
                is_zero[j] = 1
                break
            k = pivot_owner[low]
            if k == -1:
                pivot_owner[low] = j
                pair_rows[n_pairs] = low
                pair_cols[n_pairs] = j
                n_pairs += 1
                if use_clearing:
                    cleared[low] = 1
                # store the fully reduced column: drain the heap with parity
                if temp.shape[0] < hn + 1:
                    temp = np.empty(heap.shape[0], np.int64)
                m = 0
                while hn > 0:
                    v = heap[0]
                    cnt = 0
                    while hn > 0 and heap[0] == v:
                        hn = _pop(heap, hn)
                        cnt += 1
                    if cnt & 1:
                        temp[m] = v
                        m += 1
                while pool_n + m + 1 > pool.shape[0]:
                    bigger = np.empty(pool.shape[0] * 2, np.int64)
                    bigger[:pool_n] = pool[:pool_n]
                    pool = bigger
                col_start[j] = pool_n
                for t in range(m):
                    pool[pool_n + t] = temp[m - 1 - t]
                pool[pool_n + m] = low
                col_len[j] = m + 1
                pool_n += m + 1
                break
            else:
                heap, hn = _push(heap, hn, low)
                for t in range(col_start[k], col_start[k] + col_len[k]):
                    heap, hn = _push(heap, hn, pool[t])
    return (pair_rows[:n_pairs].copy(), pair_cols[:n_pairs].copy(),
            is_zero, pivot_owner, col_start, col_len, pool[:pool_n].copy())


def reduce_columns(indptr: np.ndarray, indices: np.ndarray, dims: np.ndarray,
                   use_clearing: bool = True):
    """Run the reduction over columns ordered top dimension first.

    Returns (pairs, is_zero, pivot_owner, col_start, col_len, pool) where
    pairs is an (m, 2) array of (birth row, death column) and the pool holds
    the reduced forms of death columns.
    """
    n = len(dims)
    order_parts = [np.flatnonzero(dims == d) for d in
                   range(int(dims.max(initial=0)), -1, -1)]
    order = np.concatenate(order_parts) if order_parts else np.empty(0, np.int64)
    rows, cols, is_zero, pivot_owner, col_start, col_len, pool = _reduce_kernel(
        indptr.astype(np.int64), indices.astype(np.int64),
        order.astype(np.int64), use_clearing)
    pairs = np.column_stack([rows, cols]) if len(rows) else np.empty((0, 2), np.int64)
    return pairs, is_zero.astype(bool), pivot_owner, col_start, col_len, pool
