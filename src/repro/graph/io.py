"""Edge-list persistence for graphs.

Plain-text edge lists keep experiment inputs inspectable and diffable.
Format: one ``u v`` pair per line; isolated nodes appear as a single
label on their own line; ``#`` starts a comment. Labels are parsed as
ints, and each passes the graph's label check as it is added
(:meth:`~repro.graph.graph.Graph.check_label`), so a file naming a
negative node, or one far past the others, raises
:class:`~repro.errors.ConfigurationError` before the graph grows toward
it: relabel such nodes ``0..n-1``.
"""

from __future__ import annotations

from pathlib import Path

from repro.graph.graph import Graph

__all__ = ["write_edge_list", "read_edge_list"]


def write_edge_list(graph: Graph, path: str | Path) -> Path:
    """Serialize ``graph`` to ``path``. Node labels are written via ``str``;
    :func:`read_edge_list` parses them back as ints (the library's node
    type). Returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        fh.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        covered: set[object] = set()
        for u, v in sorted((min(e), max(e)) for e in graph.edges()):
            fh.write(f"{u} {v}\n")
            covered.add(u)
            covered.add(v)
        for u in sorted(set(graph.nodes()) - covered):
            fh.write(f"{u}\n")
    return p


def read_edge_list(path: str | Path) -> Graph:
    """Parse a graph previously written by :func:`write_edge_list`."""
    g = Graph()
    with Path(path).open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                g.add_node(int(parts[0]))
            elif len(parts) == 2:
                g.add_edge(int(parts[0]), int(parts[1]))
            else:
                raise ValueError(
                    f"{path}:{line_no}: expected 1 or 2 fields, got {len(parts)}"
                )
    return g
