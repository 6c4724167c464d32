"""Iterative graph walks shared by every layer.

Each walk keeps its own explicit stack, so no input depth reaches the
interpreter's recursion limit. Nodes are any hashable values; a graph
is given by its roots and a successor function ``succ(node)`` (or
``children(node)``) returning an iterable. That function is called
exactly once per node entered, at the moment of entry, so a caller may
do per-node work (or raise) inside it.

Orders guaranteed:

``tree``
    Depth-first over a forest: each node is yielded entering (before
    its children, in ``children`` order) and leaving (after them), with
    its depth (roots are 0). Shared or cyclic structure is not
    detected; the input must be a forest.
``preorder``
    Each reachable node once, in the preorder of the recursive
    depth-first search that visits successors in ``succ`` order and
    skips nodes already visited.
``cycles``
    The same search, yielding one witness ``[a, ..., a]`` per back edge
    (an edge to a node on the current path, self-loops and repeated
    edges included), in the order the recursive search meets them
    (Tarjan, SIAM J. Comput. 1972).
``components``
    Weakly connected components as sets, in the order of the first
    node of each in ``nodes``. The walk inside a component is
    unordered.
``topological``
    Kahn's algorithm (CACM 1962) with ties broken by position in
    ``nodes``: O((V + E) log V). Nodes on or after a cycle are left
    out, so the order is shorter than ``nodes`` exactly when the graph
    has a cycle.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable, Iterator

Node = Hashable
Succ = Callable[[Node], Iterable[Node]]
Edges = Iterable[tuple[Node, Node]]


def tree(roots: Iterable[Node], children: Succ) -> Iterator[tuple[Node, int, bool]]:
    """``(node, depth, entering)`` for every node of a forest, entering
    and leaving, depth first."""
    path: list[Node] = []
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            yield node, len(path), True
            path.append(node)
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()
            if path:
                node = path.pop()
                yield node, len(path), False


def preorder(roots: Iterable[Node], succ: Succ) -> Iterator[Node]:
    """Every node reachable from ``roots``, once, in depth-first preorder."""
    seen: set[Node] = set()
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            if node not in seen:
                seen.add(node)
                yield node
                stack.append(iter(succ(node)))
                break
        else:
            stack.pop()


def cycles(roots: Iterable[Node], succ: Succ) -> Iterator[list[Node]]:
    """One ``[a, ..., a]`` cycle witness per back edge, depth first."""
    done: set[Node] = set()
    depth: dict[Node, int] = {}  # the nodes on the current path, by position
    path: list[Node] = []
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            if node in depth:
                yield path[depth[node]:] + [node]
            elif node not in done:
                depth[node] = len(path)
                path.append(node)
                stack.append(iter(succ(node)))
                break
        else:
            stack.pop()
            if path:
                del depth[path[-1]]
                done.add(path.pop())


def components(nodes: Iterable[Node], edges: Edges) -> list[set[Node]]:
    """Weakly connected components; every edge endpoint must be a node."""
    adj: dict[Node, set[Node]] = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[Node] = set()
    out = []
    for node in adj:
        if node not in seen:
            comp: set[Node] = set()
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur not in comp:
                    comp.add(cur)
                    stack.extend(adj[cur] - comp)
            seen |= comp
            out.append(comp)
    return out


def topological(nodes: Iterable[Node], edges: Edges) -> list[Node]:
    """Kahn's ordering with ties broken by first position in ``nodes``;
    every edge endpoint must be a node."""
    order = list(dict.fromkeys(nodes))
    position = {node: i for i, node in enumerate(order)}
    indeg = [0] * len(order)
    succs: list[list[int]] = [[] for _ in order]
    for a, b in edges:
        indeg[position[b]] += 1
        succs[position[a]].append(position[b])
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending: a heap
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(order[i])
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return out
