"""Small disjoint-set forest with path compression and union by size."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict = {}
        self._size: dict = {}
        for x in items:
            self.add(x)

    def add(self, x) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
