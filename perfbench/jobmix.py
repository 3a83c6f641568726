"""Seeded job lists for the three benchmark workloads.

A job is one `symheat compute` job file: a catalog space of curvature sign
s and radius r = p/q (1 <= p, q <= 9), a catalog bundle, an optional twist
and k_max.  Each workload has three job types.  The seed picks, per type, a
permutation of the (sign, r) pairs, and the order of the types inside each
round; a run takes whole rounds, so every type has the same count and no
(type, sign, r) repeats within a run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

RADII = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})
SIGNS = (1, -1)


@dataclass(frozen=True)
class JobType:
    name: str
    n: int  # dimension of the curved space (or curved factor)
    bundle: tuple  # catalog name, or ("tensor_product", factor, ...)
    k_max: int
    flat2_twist: Fraction | None = None  # radius-1 twist block b on a flat(2) factor


WORKLOADS = {
    # det(sinhc) pencils dominate; scalar bundles, real arithmetic.
    "det_heavy": (
        JobType("s4_scalar_k4", 4, ("scalar",), 4),
        JobType("s5_scalar_k2", 5, ("scalar",), 2),
        JobType("s4_scalar_k3", 4, ("scalar",), 3),
    ),
    # The Wick average dominates; low dimension, high order.
    "wick_heavy": (
        JobType("s2_scalar_k6", 2, ("scalar",), 6),
        JobType("s2_spinor_k6", 2, ("spinor",), 6),
        JobType("s3_spinor_k6", 3, ("spinor",), 6),
    ),
    # Matrix-valued, complex fibers; rep build and validation dominate.
    "fiber_heavy": (
        JobType("flat2xs2_vecspin_twist_k4", 2, ("tensor_product", "vector", "spinor"), 4,
                flat2_twist=Fraction(1, 3)),
        JobType("s4_spinor_k3", 4, ("spinor",), 3),
        JobType("s3_vecspin_k3", 3, ("tensor_product", "vector", "spinor"), 3),
    ),
}


@dataclass(frozen=True)
class Job:
    type: JobType
    sign: int
    radius: Fraction

    @property
    def key(self) -> tuple:
        return (self.type.name, self.sign, self.radius)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def descriptor(job: Job) -> dict:
    """The job file `symheat compute` would read for this job."""
    t = job.type
    curved = {"catalog": "sphere" if job.sign > 0 else "hyperbolic",
              "params": {"n": t.n, "radius": _frac(job.radius)}}
    out = {"k_max": t.k_max}
    if t.flat2_twist is None:
        out["space"] = curved
    else:
        out["space"] = {"catalog": "product", "params": {"factors": [
            {"catalog": "flat", "params": {"n": 2}}, curved]}}
        # The block strength scales like a curvature, b(r) = b(1) / r^2, so
        # the whole job obeys a_k(r) = r^(-2k) a_k(1).
        out["twist"] = {"blocks": [_frac(t.flat2_twist / job.radius ** 2)]}
    if len(t.bundle) == 1:
        out["bundle"] = {"catalog": t.bundle[0]}
    else:
        out["bundle"] = {"catalog": t.bundle[0], "factors": list(t.bundle[1:])}
    return out


def job_rounds(workload: str, seed: int) -> list[list[Job]]:
    """Every round of the run, in order; one job of each type per round."""
    types = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    per_type = []
    for t in types:
        pairs = [(s, r) for s in SIGNS for r in RADII]
        rng.shuffle(pairs)
        per_type.append([Job(t, s, r) for s, r in pairs])
    rounds = []
    for jobs in zip(*per_type):
        jobs = list(jobs)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds
