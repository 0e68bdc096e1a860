"""The benchmark's three workloads: inputs, timed calls and output checks.

Each workload is built from a seed (set-up), then ``run()`` makes the timed
calls into graphdgla and checks every output.  Only ``star`` draws random
input; ``solve`` and ``homology`` accept the seed and ignore it.  graphdgla is
imported inside the constructors, so run.py can import this module
without loading the engine.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time

DEFAULT_SEED = 1

SOLVE_ARGV = ["solve", "5", "--projection", "linear", "--format", "json"]
# SHA-256 of the JSON stdout of SOLVE_ARGV (156,903 bytes)
SOLVE_SHA256 = "9221114f73b760aa08a139534e73a72411f0edde6c077e2a0d5861d0f2974dc5"

HOMOLOGY_ARGV = ["homology", "--n-max", "3", "--m-max", "3", "--format", "json"]
# frozen n <= 3 table: (n, m) -> (classes, dim Z, dim B, dim H)
HOMOLOGY_TABLE = {
    (0, 1): (1, 0, 0, 0),
    (0, 2): (1, 1, 1, 0),
    (0, 3): (1, 0, 0, 0),
    (1, 1): (0, 0, 0, 0),
    (1, 2): (1, 1, 0, 1),
    (1, 3): (3, 0, 0, 0),
    (2, 1): (1, 0, 0, 0),
    (2, 2): (6, 1, 1, 0),
    (2, 3): (21, 6, 5, 1),
    (3, 1): (4, 1, 0, 1),
    (3, 2): (38, 7, 3, 4),
    (3, 3): (180, 35, 31, 4),
}
HOMOLOGY_ROWS = [
    {"n": n, "m": m, "classes": c, "dim_Z": z, "dim_B": b, "dim_H": h}
    for (n, m), (c, z, b, h) in HOMOLOGY_TABLE.items()
]
COHOMOLOGY_4_1 = (12, 0, 12)

STAR_TRIPLES = 200
STAR_SO3_SHARE = 4  # one so(3) triple in four: symplectic and so(3) mixed 3:1
STAR_POOL = 8
STAR_TERMS = 3
STAR_COEFFS = (-3, -2, -1, 1, 2, 3)
# (dimension, maximal total degree) of the random polynomials of each kind
STAR_SHAPES = {"symplectic": (2, 3), "so3": (3, 2)}
# SHA-256 of every defect polynomial of the DEFAULT_SEED corpus
STAR_DEFAULT_SHA256 = "fe834e917256c4a18acd062f9bc5c3406875c0ca8dcab0f32673e208aafe5782"


def _timed(ops_ms: list, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:  # an operation that raises keeps its place in the list
        ops_ms.append((time.perf_counter() - t0) * 1e3)


class Solve:
    """The deformation recursion through the CLI; stdout pinned by digest."""

    def __init__(self, seed: int):
        from graphdgla import cli

        self.cli = cli

    @staticmethod
    def checks_for(seed: int) -> int:
        return 1

    def run(self) -> tuple[list, int]:
        """Returns (per-call latencies in ms, failed checks)."""
        ops_ms: list = []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = _timed(ops_ms, self.cli.main, SOLVE_ARGV)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        return ops_ms, 0 if rc == 0 and digest == SOLVE_SHA256 else 1


class Homology:
    """The n <= 3 cohomology table through the CLI, then the (4, 1) component."""

    def __init__(self, seed: int):
        from graphdgla import cli, homology

        self.cli = cli
        self.homology = homology

    @staticmethod
    def checks_for(seed: int) -> int:
        return 1

    def run(self) -> tuple[list, int]:
        ops_ms: list = []
        buf = io.StringIO()
        # the table and the (4, 1) component together make one operation
        with contextlib.redirect_stdout(buf):
            rc, dims = _timed(ops_ms, self._both)
        ok = rc == 0 and json.loads(buf.getvalue()) == HOMOLOGY_ROWS and dims == COHOMOLOGY_4_1
        return ops_ms, 0 if ok else 1

    def _both(self):
        return self.cli.main(HOMOLOGY_ARGV), self.homology.cohomology_dims(4, 1)


def _random_poly(rng: random.Random, Poly, d: int, degree: int):
    # one term in each of the top STAR_TERMS degrees, so that the cost of a
    # triple, and with it the run time, varies little from seed to seed
    terms = [rng.choice(_exponents(d, deg)) for deg in range(degree, degree - STAR_TERMS, -1)]
    return Poly(d, {e: rng.choice(STAR_COEFFS) for e in terms})


def _exponents(d: int, degree: int) -> list[tuple]:
    """Exponent vectors of the monomials of total degree exactly ``degree``."""
    return sorted(e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree)


class Star:
    """Associativity defects of evaluated star products on a seeded corpus."""

    def __init__(self, seed: int):
        from graphdgla import kontsevich, mc

        self.kontsevich = kontsevich
        self.mc = mc
        self.seed = seed
        rng = random.Random(seed)
        pools = {
            kind: [_random_poly(rng, kontsevich.Poly, d, deg) for _ in range(STAR_POOL)]
            for kind, (d, deg) in STAR_SHAPES.items()
        }
        kinds = ["so3" if i % STAR_SO3_SHARE == 0 else "symplectic" for i in range(STAR_TRIPLES)]
        rng.shuffle(kinds)
        self.triples = [
            (kind, tuple(pools[kind][rng.randrange(STAR_POOL)] for _ in range(3)))
            for kind in kinds
        ]

    @staticmethod
    def checks_for(seed: int) -> int:
        """One check per triple, plus the digest check on the default seed."""
        return STAR_TRIPLES + (seed == DEFAULT_SEED)

    def run(self) -> tuple[list, int]:
        k, mc = self.kontsevich, self.mc
        structures = {
            "symplectic": (mc.solve(4, "constant"), k.PoissonStructure.standard_symplectic(2)),
            "so3": (mc.solve(2, "linear"), k.PoissonStructure.so3()),
        }
        ops_ms: list = []
        failed = 0
        digest = hashlib.sha256()
        for i, (kind, (u, v, w)) in enumerate(self.triples):
            series, alpha = structures[kind]
            try:
                defects = _timed(ops_ms, k.associativity_defect, series, alpha, u, v, w)
            except Exception:  # an operation that raises counts as failed
                failed += 1
                continue
            # symplectic: associative at every order; so(3): Leibniz orders 0, 1
            checked = defects if kind == "symplectic" else defects[:2]
            if any(checked):
                failed += 1
            for n, p in enumerate(defects):
                digest.update(("%d %s %d %s\n" % (i, kind, n, p)).encode())
        if self.seed == DEFAULT_SEED and digest.hexdigest() != STAR_DEFAULT_SHA256:
            failed += 1
        return ops_ms, failed


WORKLOADS = {"solve": Solve, "homology": Homology, "star": Star}
