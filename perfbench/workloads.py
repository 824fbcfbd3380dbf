"""Seeded case lists for the benchmark workloads.

A case is one argv for ``siflag.cli.main``, i.e. one CLI command.  Every case
a seed can produce is in ``POOLS``, so ``reference.json`` can hold the digest of
its output.

Runs made with different seeds are compared with each other, so the seed
varies the inputs without moving work from one case to another.  Cases that
share a cache (the W-orbit of one weight shares a pairing table; the weights of
one type share ``_base_loops`` and the eigen bases) form a block in a fixed
order, since the first case of a block pays for the cache; the seed orders the
blocks and makes only choices of equal cost:

* ``oracle``: the A1 orbits {g, -g} for g <= 4, plus the A2 orbit of omega1 or
  of omega2 (swapped by the diagram automorphism).
* ``eigen-rank2``: one block per type; the seed orders them.
* ``eigen-rank3``: A3 omega1, omega2, omega3, or the mirror order omega3,
  omega2, omega1.
* ``recursion``: one block per type, suites in a fixed order.  Each type draws
  k and runs ``dmain`` at ``TRUNCS[k]`` and ``fdif`` at the mirrored
  ``TRUNCS[-1 - k]``, so the seed moves work between the two heavy suites
  rather than adding it; the light suites draw their ``--trunc`` freely.
"""
from __future__ import annotations

import random

TRUNCS = (40, 50, 60, 70, 80)
SUITES = ("nmconn", "dmain", "fdif", "cor", "gnsmac")


def _coords(weight) -> str:
    return ",".join(str(c) for c in weight)


def emac(type_name: str, gamma) -> list[str]:
    # --gamma=... in its equals form: argparse rejects "--gamma -1,0"
    return ["emac", "--type", type_name, f"--gamma={_coords(gamma)}", "--format", "json"]


def weylchar(type_name: str, lam) -> list[str]:
    return ["weylchar", "--type", type_name, "--lambda", _coords(lam), "--w", "e",
            "--format", "json"]


def verify(type_name: str, suite: str, trunc: int) -> list[str]:
    return ["verify", "--suite", suite, "--type", type_name, "--max-weight", "1",
            "--trunc", str(trunc), "--jobs", "1"]


A1_ORBITS = (1, 2, 3, 4)
A2_ORBITS = (((1, 0), (-1, 1), (0, -1)), ((0, 1), (1, -1), (-1, 0)))
EIGEN_RANK2 = {"B2": ((1, 0), (0, 1), (1, 1)),
               "C2": ((1, 0), (0, 1), (1, 1)),
               "G2": ((1, 0), (0, 1), (2, 0))}
EIGEN_RANK3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
RECURSION_TYPES = ("B2", "C2", "G2")


def _blocks(rng: random.Random, blocks) -> list[list[str]]:
    blocks = list(blocks)
    rng.shuffle(blocks)
    return [case for block in blocks for case in block]


def _oracle(rng: random.Random) -> list[list[str]]:
    blocks = [[emac("A1", (g,)), emac("A1", (-g,))] for g in A1_ORBITS]
    blocks.append([emac("A2", g) for g in rng.choice(A2_ORBITS)])
    return _blocks(rng, blocks)


def _eigen_rank2(rng: random.Random) -> list[list[str]]:
    return _blocks(rng, [[weylchar(t, lam) for lam in weights]
                         for t, weights in EIGEN_RANK2.items()])


def _eigen_rank3(rng: random.Random) -> list[list[str]]:
    order = list(EIGEN_RANK3)
    if rng.random() < 0.5:
        order.reverse()
    return [weylchar("A3", lam) for lam in order]


def _recursion(rng: random.Random) -> list[list[str]]:
    blocks = []
    for t in RECURSION_TYPES:
        k = rng.randrange(len(TRUNCS))
        truncs = {"dmain": TRUNCS[k], "fdif": TRUNCS[-1 - k]}
        blocks.append([verify(t, s, truncs.get(s) or rng.choice(TRUNCS)) for s in SUITES])
    return _blocks(rng, blocks)


GENERATORS = {
    "oracle": _oracle,
    "eigen-rank2": _eigen_rank2,
    "eigen-rank3": _eigen_rank3,
    "recursion": _recursion,
}

POOLS = {
    "oracle": [emac("A1", (s * g,)) for g in A1_ORBITS for s in (1, -1)]
              + [emac("A2", g) for orbit in A2_ORBITS for g in orbit],
    "eigen-rank2": [weylchar(t, lam) for t, weights in EIGEN_RANK2.items() for lam in weights],
    "eigen-rank3": [weylchar("A3", lam) for lam in EIGEN_RANK3],
    "recursion": [verify(t, s, n) for t in RECURSION_TYPES for s in SUITES for n in TRUNCS],
}

# Small case lists for the self-test, each one drawn from its workload's pool.
SMOKE = {
    "oracle": [emac("A1", (1,)), emac("A1", (-2,)), emac("A2", (-1, 1))],
    "eigen-rank2": [weylchar("B2", (1, 0)), weylchar("G2", (1, 0))],
    "eigen-rank3": [weylchar("A3", (1, 0, 0))],
    "recursion": [verify("B2", s, 40) for s in SUITES],
}


def cases(workload: str, seed: int) -> list[list[str]]:
    """The case list of one workload for one seed; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def case_key(argv) -> str:
    return " ".join(argv)


def root_system_names(case_list) -> list[str]:
    """The --type of every case, each once, in first-use order."""
    names = []
    for argv in case_list:
        name = argv[argv.index("--type") + 1]
        if name not in names:
            names.append(name)
    return names
