"""Seeded input generators: the same seed always yields the same inputs.

Generators know nothing about the engines; they produce plain Python
values (account balances, goal records, edge sets) that the workloads
render to TD text.  Every stream is infinite and deterministic, so a
time-bounded run consumes a prefix of a fixed sequence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

#: Accounts in the durable bank (the store-bound workload).
BANK_ACCOUNTS = 2000
#: Share of transfers drawn with an amount no balance can cover, so a
#: few percent of goals are correct refusals (no execution commits).
BANK_REFUSAL_SHARE = 0.03

#: Batch sizes of the genome lab, each drawn once per block of five
#: batches in seeded order: every seed sees the same size mix, which
#: keeps per-seed cost comparable (cost grows steeply with batch size).
LAB_BATCH_SIZES = (3, 4, 5, 6, 7)

#: Nodes and edges of the reachability DAG.
REACH_NODES = 100
REACH_LAYERS = 4
REACH_EDGES = 200
#: One goal in this many is a ``link``/``unlink`` update (2% writes).
REACH_WRITE_EVERY = 50


@dataclass(frozen=True)
class Transfer:
    src: int
    dst: int
    amount: int

    def text(self) -> str:
        return "transfer(a%d, a%d, %d)" % (self.src, self.dst, self.amount)


@dataclass(frozen=True)
class Batch:
    index: int
    size: int
    dfs_seed: int

    def items(self) -> List[str]:
        return ["b%05d_s%d" % (self.index, i) for i in range(self.size)]


@dataclass(frozen=True)
class Reach:
    node: int

    def text(self) -> str:
        return "reach(n%d, Y)" % self.node


@dataclass(frozen=True)
class Link:
    src: int
    dst: int
    add: bool

    def text(self) -> str:
        return "%s(n%d, n%d)" % ("link" if self.add else "unlink", self.src, self.dst)


def bank_balances(seed: int) -> Dict[int, int]:
    rng = random.Random("bank-balances:%d" % seed)
    return {i: rng.randint(50, 150) for i in range(BANK_ACCOUNTS)}


def bank_transfers(seed: int) -> Iterator[Transfer]:
    rng = random.Random("bank-transfers:%d" % seed)
    while True:
        src, dst = rng.sample(range(BANK_ACCOUNTS), 2)
        if rng.random() < BANK_REFUSAL_SHARE:
            amount = rng.randint(10_000, 20_000)
        else:
            amount = rng.randint(1, 40)
        yield Transfer(src, dst, amount)


def lab_batches(seed: int) -> Iterator[Batch]:
    rng = random.Random("lab-batches:%d" % seed)
    index = 0
    while True:
        block = list(LAB_BATCH_SIZES)
        rng.shuffle(block)
        for size in block:
            yield Batch(index, size, rng.randrange(1 << 30))
            index += 1


def reach_edges(seed: int) -> Set[Tuple[int, int]]:
    """A layered DAG: :data:`REACH_LAYERS` layers of equal width, two
    edges from every node to distinct nodes of the next layer, and
    seeded skip edges (lower to higher node, at least two layers apart)
    up to :data:`REACH_EDGES`.  Fixed layer shapes keep closure sizes,
    and so per-goal cost, alike across seeds."""
    rng = random.Random("reach-edges:%d" % seed)
    width = REACH_NODES // REACH_LAYERS
    out: Set[Tuple[int, int]] = set()
    for layer in range(REACH_LAYERS - 1):
        for pos in range(width):
            for dst in rng.sample(range(width), 2):
                out.add((layer * width + pos, (layer + 1) * width + dst))
    while len(out) < REACH_EDGES:
        a, b = sorted(rng.sample(range(REACH_NODES), 2))
        if b // width - a // width >= 2:
            out.add((a, b))
    return out


def reach_goals(seed: int) -> Iterator[object]:
    """Skewed ``reach`` reads with a ``link``/``unlink`` every
    :data:`REACH_WRITE_EVERY` goals.

    Read popularity is Zipf over node rank, and rank is node index, so
    the hottest nodes sit in the first layers, whose closures are the
    largest in every seed's DAG.  Writes alternate insert and delete so
    the edge count stays near :data:`REACH_EDGES`; the generator keeps
    its own edge set so every ``link`` is new and every ``unlink``
    exists.
    """
    rng = random.Random("reach-goals:%d" % seed)
    nodes = REACH_NODES
    edges = set(reach_edges(seed))
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(nodes)))
    for i in itertools.count():
        if i % REACH_WRITE_EVERY == REACH_WRITE_EVERY - 1:
            if (i // REACH_WRITE_EVERY) % 2 == 0:
                while True:
                    a, b = sorted(rng.sample(range(nodes), 2))
                    if (a, b) not in edges:
                        break
                edges.add((a, b))
                yield Link(a, b, True)
            else:
                a, b = rng.choice(sorted(edges))
                edges.discard((a, b))
                yield Link(a, b, False)
        else:
            yield Reach(rng.choices(range(nodes), cum_weights=cum)[0])
