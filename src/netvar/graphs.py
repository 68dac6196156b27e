"""Parsing of graph collections into a canonical binary incidence matrix.

A sample set is a list of graphs over one fixed node set.  Each graph is
reduced to its undirected edge set (arcs are collapsed onto the unordered
pair of endpoints) and encoded as one row of a binary matrix whose columns
enumerate the node pairs in lexicographic order of node positions.

Text format (UTF-8, line oriented)::

    # comment to end of line, blank lines ignored
    nodes A B C
    graph
    A B
    B C
    graph         # a block with no edge lines is the empty graph

Edge lines may be arcs of a directed graph: antiparallel arcs collapse
onto the same column.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np


class SampleSetError(ValueError):
    """Malformed sample-set input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class NodeSet:
    """Ordered collection of distinct node labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise SampleSetError(f"need at least 2 nodes, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise SampleSetError(f"duplicate node labels in {self.labels}")

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of potential edges, v*(v-1)/2."""
        return self.v * (self.v - 1) // 2

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise SampleSetError(f"unknown node label {label!r}") from None


def edge_index(pair: tuple[str, str], nodes: NodeSet) -> int:
    """Linear column index of an unordered node pair.

    Pairs are enumerated lexicographically over node positions:
    (0,1), (0,2), ..., (0,v-1), (1,2), ...  The map is a bijection onto
    [0, k).
    """
    a, b = nodes.position(pair[0]), nodes.position(pair[1])
    if a == b:
        raise SampleSetError(f"self-loop on node {pair[0]!r}")
    if a > b:
        a, b = b, a
    return a * (2 * nodes.v - a - 1) // 2 + (b - a - 1)


def edge_pairs(nodes: NodeSet) -> list[tuple[str, str]]:
    """Label pairs in column order; inverse of :func:`edge_index`."""
    labels = nodes.labels
    return [
        (labels[a], labels[b])
        for a in range(nodes.v)
        for b in range(a + 1, nodes.v)
    ]


def biorient(arcs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Collapse arcs onto unordered pairs (label-sorted tuples), deduplicated."""
    edges = set()
    for a, b in arcs:
        if a == b:
            raise SampleSetError(f"self-loop on node {a!r}")
        edges.add((a, b) if a <= b else (b, a))
    return edges


@dataclass(frozen=True)
class SampleSet:
    """m graphs over a fixed node set as an m x k binary incidence matrix.

    With ``nodes`` present the columns enumerate all v*(v-1)/2 potential
    edges; ``nodes=None`` admits an anonymous edge subset of any width
    (restrictions of a full sample set are themselves sample sets).
    """

    nodes: NodeSet | None
    incidence: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.incidence, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise SampleSetError(f"incidence must be an m x k matrix, got shape {arr.shape}")
        if self.nodes is not None and arr.shape[1] != self.nodes.k:
            raise SampleSetError(
                f"incidence must be m x {self.nodes.k}, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise SampleSetError("sample set needs at least one graph")
        if not np.isin(arr, (0, 1)).all():
            raise SampleSetError("incidence entries must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "incidence", arr)

    @property
    def m(self) -> int:
        return self.incidence.shape[0]

    @property
    def k(self) -> int:
        return self.incidence.shape[1]


def parse_sample_set(stream: str | IO[str]) -> SampleSet:
    """Parse the sample-set text format into a :class:`SampleSet`.

    Arcs collapse onto their unordered endpoint pair, and duplicate edges
    inside one block are idempotent.
    """
    text = stream if isinstance(stream, str) else stream.read()
    nodes: NodeSet | None = None
    rows: list[np.ndarray] = []
    current: np.ndarray | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if nodes is None:
            if tokens[0] != "nodes":
                raise SampleSetError("expected 'nodes <label> ...' header", lineno)
            try:
                nodes = NodeSet(tuple(tokens[1:]))
            except SampleSetError as exc:
                raise SampleSetError(str(exc), lineno) from None
            continue
        if tokens == ["graph"]:
            if current is not None:
                rows.append(current)
            current = np.zeros(nodes.k, dtype=np.uint8)
            continue
        if current is None:
            raise SampleSetError("edge line before any 'graph' block", lineno)
        if len(tokens) != 2:
            raise SampleSetError(f"edge line needs two labels, got {len(tokens)}", lineno)
        try:
            current[edge_index((tokens[0], tokens[1]), nodes)] = 1
        except SampleSetError as exc:
            raise SampleSetError(str(exc), lineno) from None

    if nodes is None:
        raise SampleSetError("empty input: missing 'nodes' header")
    if current is not None:
        rows.append(current)
    if not rows:
        raise SampleSetError("no 'graph' blocks found")
    return SampleSet(nodes, np.vstack(rows))


def format_sample_set(samples: SampleSet) -> str:
    """Serialize to the text format; re-parsing restores the incidence matrix."""
    if samples.nodes is None:
        raise SampleSetError("cannot serialize an anonymous edge-subset sample set")
    pairs = edge_pairs(samples.nodes)
    lines = ["nodes " + " ".join(samples.nodes.labels)]
    for row in samples.incidence:
        lines.append("graph")
        lines.extend(f"{pairs[j][0]} {pairs[j][1]}" for j in np.flatnonzero(row))
    return "\n".join(lines) + "\n"


def sample_set_from_edge_lists(
    labels: Sequence[str],
    graphs: Iterable[Iterable[tuple[str, str]]],
) -> SampleSet:
    """Build a SampleSet from in-memory edge (or arc) lists."""
    nodes = NodeSet(tuple(labels))
    rows = []
    for graph in graphs:
        row = np.zeros(nodes.k, dtype=np.uint8)
        for pair in biorient(graph):
            row[edge_index(pair, nodes)] = 1
        rows.append(row)
    if not rows:
        raise SampleSetError("need at least one graph")
    return SampleSet(nodes, np.vstack(rows))
