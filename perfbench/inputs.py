"""Seeded inputs for the benchmark: rows, PO lattice domains and queries.

Everything here is plain data (tuples, lists, ints) drawn from one
``random.Random`` per stream, so the same seed always yields the same
inputs and the program under test receives only these values.

* TO attributes follow the paper's construction over the integer domain
  ``[0, 10000)``: *independent* draws each value uniformly; *anticorrelated*
  scatters points around the hyperplane ``sum = |TO| / 2`` (Borzsonyi et
  al.), so a good value in one dimension is paid for in the others.
* Each PO domain is a sampled subset lattice of height ``h`` (nodes are
  bitmasks, edges add one object).  Exactly ``round(d * 2**h)`` nodes are
  kept, always including the empty and the full set, so the domain size does
  not vary with the seed.
* A query re-ranks a PO domain: the values are shuffled and each forward
  pair becomes an edge with a probability calibrated to the base lattice's
  edge density.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

TO_DOMAIN = 10_000
#: The query streams the digest covers, and how many queries of each.
DIGEST_STREAMS = ("warmup", "queries", "hot")
DIGEST_QUERIES = 64


@dataclass(frozen=True)
class Shape:
    """The data parameters of one workload."""

    rows: int
    to: int
    po: int
    height: int
    density: float
    distribution: str = "anticorrelated"


@dataclass
class PODomain:
    """One PO attribute: its value domain and base preference edges."""

    name: str
    values: list[int]
    edges: list[tuple[int, int]]
    height: int
    density: float


def lattice(height: int, density: float, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    """A subset lattice over ``height`` objects keeping ``round(density * 2**height)`` nodes."""
    full = (1 << height) - 1
    keep = max(2, round(density * (1 << height)))
    inner = list(range(1, full))
    kept = sorted([0, full, *rng.sample(inner, keep - 2)])
    kept_set = set(kept)
    edges = [
        (mask, mask | (1 << bit))
        for mask in kept
        for bit in range(height)
        if not mask >> bit & 1 and mask | (1 << bit) in kept_set
    ]
    return kept, edges


def _to_values(num_to: int, distribution: str, rng: random.Random) -> list[int]:
    if distribution == "independent":
        unit = [rng.random() for _ in range(num_to)]
    elif distribution == "anticorrelated":
        level = 0.5 + rng.gauss(0.0, 0.05)
        raw = [rng.random() for _ in range(num_to)]
        scale = level * num_to / (sum(raw) or 1.0)
        unit = [min(1.0, max(0.0, value * scale)) for value in raw]
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return [min(TO_DOMAIN - 1, int(value * TO_DOMAIN)) for value in unit]


def draw_rows(shape: Shape, domains: list[PODomain], count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """``count`` rows in schema order: TO values first, then PO values."""
    return [
        tuple(_to_values(shape.to, shape.distribution, rng))
        + tuple(domain.values[rng.randrange(len(domain.values))] for domain in domains)
        for _ in range(count)
    ]


def preference(domain: PODomain, rng: random.Random) -> dict[str, list]:
    """A random re-ranking of ``domain`` in the service's DAG wire format.

    The edge probability is twice the base lattice's edge density, taken
    from the lattice's *expected* edge count (``h * 2**(h-1)`` Hasse edges,
    each kept when both ends are, so times ``d**2``) rather than the sampled
    one, so query cost does not vary with the seed's lattice sample.
    """
    values = list(domain.values)
    rng.shuffle(values)
    pairs = len(values) * (len(values) - 1) / 2 or 1.0
    expected_edges = domain.height * 2 ** (domain.height - 1) * domain.density**2
    probability = min(0.5, expected_edges / pairs * 2.0)
    edges = [
        [values[i], values[j]]
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if rng.random() < probability
    ]
    return {"values": sorted(values), "edges": edges}


class Inputs:
    """All inputs of one run, derived from ``(shape, seed)`` alone.

    Queries are override mappings ``{po_name: {"values", "edges"}}`` drawn
    from named streams; each stream (rows, each query stream, inserts) has
    its own generator, so drawing more queries never changes the rows.
    """

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        lattice_rng = random.Random(f"lattice-{seed}")
        self.domains = []
        for index in range(shape.po):
            values, edges = lattice(shape.height, shape.density, lattice_rng)
            self.domains.append(
                PODomain(f"po{index + 1}", values, edges, shape.height, shape.density)
            )
        self.rows = draw_rows(shape, self.domains, shape.rows, random.Random(f"rows-{seed}"))

    @property
    def to_names(self) -> list[str]:
        return [f"to{index + 1}" for index in range(self.shape.to)]

    def stream(self, name: str):
        """Endless random-preference queries of the stream ``name``."""
        rng = random.Random(f"{name}-{self.seed}")
        while True:
            yield {domain.name: preference(domain, rng) for domain in self.domains}

    def row_stream(self, name: str, count: int):
        """Endless batches of ``count`` fresh rows (for inserts) of the stream ``name``."""
        rng = random.Random(f"{name}-{self.seed}")
        while True:
            yield draw_rows(self.shape, self.domains, count, rng)

    def take(self, name: str, count: int) -> list[dict]:
        return list(itertools.islice(self.stream(name), count))

    def digest(self) -> str:
        """A short hash of the domains, every row and the head of each query stream."""
        payload = json.dumps(
            [
                [[d.values, d.edges] for d in self.domains],
                self.rows,
                [self.take(name, DIGEST_QUERIES) for name in DIGEST_STREAMS],
            ],
            separators=(",", ":"),
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def build_schema(inputs: Inputs):
    """The program's :class:`Schema` for ``inputs`` (imports the program)."""
    from repro import PartialOrderAttribute, PartialOrderDAG, Schema, TotalOrderAttribute

    attributes = [TotalOrderAttribute(name) for name in inputs.to_names]
    attributes += [
        PartialOrderAttribute(domain.name, PartialOrderDAG(domain.values, domain.edges))
        for domain in inputs.domains
    ]
    return Schema(attributes)


def to_dags(overrides: dict[str, dict[str, list]]):
    """A wire-format override mapping as program :class:`PartialOrderDAG` objects."""
    from repro import PartialOrderDAG

    return {
        name: PartialOrderDAG(spec["values"], [tuple(edge) for edge in spec["edges"]])
        for name, spec in overrides.items()
    }
