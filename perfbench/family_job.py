"""The family_N9 job: the family Hecke operator against its Sym^2 shadow.

Draws a random weight-family cocycle at level 9 (p = 3, r = 4, d = 4,
stored width out + 2 * family_tail, enough for one operator), applies the
double-coset operator of t_ell_reps(3) in the family, specializes the
image at weight k = 4, and compares it on every generator with the same
operator applied to the specialized (Sym^2) cocycle.

Prints one JSON line: the seed, per-generator agreement and the
specialized image coordinates.  Run it as

    PYTHONPATH=src python3 perfbench/family_job.py --seed 1
"""

import argparse
import json
import random

from pwl.cohomology import (Cocycle, FamilyCoeffs, hecke_images,
                            specialize_cocycle, t_ell_reps)
from pwl.gamma1 import free_basis
from pwl.iwasawa import family_tail

LEVEL, P, R, D, K = 9, 3, 4, 4, 4


def run(seed):
    fb = free_basis(LEVEL)
    out = K - 1
    coeffs = FamilyCoeffs(P, R, D, out, out + 2 * family_tail(P, R, D))
    c_fam = Cocycle.random(coeffs, fb, random.Random(seed))
    reps = t_ell_reps(P, fb)
    got = specialize_cocycle(K, hecke_images(c_fam, reps))
    c_sym = specialize_cocycle(K, c_fam)
    want = hecke_images(c_sym, reps)
    agree = [c_sym.coeffs.eq(g, w) for g, w in zip(got.values, want.values)]
    return {"seed": seed, "agree": agree,
            "image": [list(v.coords) for v in got.values]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    print(json.dumps(run(ap.parse_args(argv).seed), sort_keys=True))


if __name__ == "__main__":
    main()
