"""Entity / repo link graph + PageRank.

Numeric parity with the reference (opentapioca/wikidatagraph.py:96-170):
row-normalized link weights, 16 fixed power iterations of `v·M`, after each
an L1 loss compensation `v += (1 − ‖v‖₁)/N` (dangling mass), OOV pagerank
default `0.01 / N`. The reference builds a scipy CSR from an externally
GNU-sorted TSV; here edge extraction + normalization + sort are Ray Data
stages (see pipelines/pagerank.py) and the power iteration itself is a
numpy CSR-style kernel (no scipy in this environment) run either inside a
single process (small graphs) or as groupby-sum shuffles (scale path).
"""

from __future__ import annotations

from math import log

import numpy as np


class LinkGraph:
    """CSR-like adjacency held as three numpy arrays.

    Rows/cols are dense numeric ids `0..shape-1` (the reference keeps row
    index == numeric qid, padding empty rows — wikidatagraph.py:93-95).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: int):
        self.indptr = indptr.astype(np.int64)
        self.indices = indices.astype(np.int64)
        self.data = data.astype(np.float64)
        self.shape = int(shape)
        self.pagerank: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_sorted_edges(
        cls, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, shape: int | None = None
    ) -> "LinkGraph":
        """Build from row-normalized edge triples sorted by (src, dst).

        Raises ValueError when `src` is not sorted — mirror of the
        reference's sortedness validation (wikidatagraph.py:76-83).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        if len(src) and np.any(np.diff(src) < 0):
            raise ValueError("The edge list is not sorted.")
        if shape is None:
            shape = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        # drop edges pointing past the id space (reference drops targets >
        # last_qid — wikidatagraph.py:97)
        keep = dst < shape
        src, dst, weight = src[keep], dst[keep], weight[keep]
        indptr = np.zeros(shape + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, weight, shape)

    @classmethod
    def from_edge_multiset(cls, src, dst, shape: int | None = None) -> "LinkGraph":
        """Build from a raw (possibly repeated) edge multiset: dedup targets
        per source with multiplicity counts, row-normalize
        (reference wikidatagraph.py:44-59,97-107)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if shape is None:
            shape = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(src) else 0
        keep = dst < shape
        src, dst = src[keep], dst[keep]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        # collapse duplicate (src,dst) into counts
        if len(src):
            new = np.ones(len(src), dtype=bool)
            new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            group_id = np.cumsum(new) - 1
            counts = np.bincount(group_id).astype(np.float64)
            usrc, udst = src[new], dst[new]
            row_sum = np.bincount(usrc, weights=counts, minlength=shape)
            weights = counts / row_sum[usrc]
        else:
            usrc = udst = src
            weights = np.zeros(0)
        return cls.from_sorted_edges(usrc, udst, weights, shape)

    # ------------------------------------------------------------------
    def _row_of_entry(self) -> np.ndarray:
        lengths = np.diff(self.indptr)
        return np.repeat(np.arange(self.shape, dtype=np.int64), lengths)

    def compute_pagerank(self, max_iterations: int = 16) -> np.ndarray:
        """16 power iterations of `v·M` with L1 loss compensation
        (reference wikidatagraph.py:131-157)."""
        n = self.shape
        v = np.full(n, 1.0 / n, dtype=np.float64)
        rows = self._row_of_entry()
        for _ in range(max_iterations):
            contrib = self.data * v[rows]
            nv = np.bincount(self.indices, weights=contrib, minlength=n)
            nv += (1.0 - nv.sum()) / n
            v = nv
        self.pagerank = v
        return v

    def get_pagerank(self, node_id: int) -> float:
        """OOV default 0.01/N (reference wikidatagraph.py:165-170)."""
        assert self.pagerank is not None, "compute or load pagerank first"
        if 0 <= node_id < self.pagerank.shape[0]:
            return float(self.pagerank[node_id])
        return 0.01 / self.pagerank.shape[0]

    def rank_feature(self, node_id: int) -> float:
        """`23 + log(pagerank)` (reference tagger.py:109)."""
        return 23.0 + log(self.get_pagerank(node_id))

    # ------------------------------------------------------------------
    def save_pagerank(self, fname: str) -> None:
        np.save(fname, self.pagerank)

    def load_pagerank(self, fname: str) -> None:
        self.pagerank = np.load(fname)


def pagerank_from_vector(pagerank: np.ndarray):
    """Small helper for broadcast use: wraps a dense pagerank vector with
    the OOV default + rank transform, no adjacency needed."""
    g = LinkGraph(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0), 0)
    g.pagerank = np.asarray(pagerank, dtype=np.float64)
    g.shape = g.pagerank.shape[0]
    return g
