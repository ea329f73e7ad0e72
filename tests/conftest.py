from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from isotree import Graph, ScalarGraph, gen_path, gen_tri_grid
from isotree.mono import path_site_ids


def pytest_configure(config: pytest.Config) -> None:
    """Let CLI children import the same ``src/`` that pytest's ``pythonpath`` gives the tests."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def peak() -> ScalarGraph:
    """Path a-b-c with values (1, 3, 0): one interior maximum."""
    return gen_path(3, [1, 3, 0])


@pytest.fixture
def ramp3() -> ScalarGraph:
    return gen_path(3, [0, 1, 2])


@pytest.fixture
def plateau() -> ScalarGraph:
    return gen_path(3, [0, 0, 1])


@pytest.fixture
def disconnected_zone_grid() -> ScalarGraph:
    """2x2 triangulated grid whose value-1 zone is two non-adjacent sites."""
    return gen_tri_grid(2, 2, [0, 1, 1, 2])


CORPUS_SIZE = 200


def corpus_graph(i: int) -> ScalarGraph:
    """Graph ``i`` of the seeded acceptance corpus: tri-grids and paths."""
    rng = random.Random(20_000 + i)
    if i % 2 == 0:
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        return gen_tri_grid(w, h, [rng.randint(0, 5) for _ in range(w * h)])
    n = rng.randint(1, 10)
    return gen_path(n, [rng.randint(0, 5) for _ in range(n)])


def cycle_graph(n: int) -> Graph:
    ids = path_site_ids(n)
    return Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def random_tree_graph(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random tree; trees are mono-connected by construction."""
    ids = path_site_ids(n)
    pairs = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    return Graph(ids, pairs)


def random_mono_scalar_graph(seed: int, max_sites: int = 9, high: int = 4) -> ScalarGraph:
    """Seeded mono-connected scalar graph: a path, grid or random tree."""
    rng = random.Random(seed)
    kind = rng.choice(["path", "grid", "tree"])
    if kind == "path":
        n = rng.randint(1, max_sites)
        return gen_path(n, [rng.randint(0, high) for _ in range(n)])
    if kind == "grid":
        w = rng.randint(1, 3)
        h = rng.randint(1, max(1, max_sites // w))
        return gen_tri_grid(w, h, [rng.randint(0, high) for _ in range(w * h)])
    n = rng.randint(1, max_sites)
    g = random_tree_graph(n, rng)
    return ScalarGraph(g, {p: rng.randint(0, high) for p in g.sites})


# Hypothesis strategy over the same family, for property tests.
mono_scalar_graphs = st.builds(
    random_mono_scalar_graph, seed=st.integers(min_value=0, max_value=10_000)
)
