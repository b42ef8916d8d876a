"""Term-map kernels on randomized term maps."""

import random

from rhopf import kernels


def _rand_mono(rng):
    pairs = sorted((v, rng.randint(-4, 4))
                   for v in rng.sample(range(8), rng.randint(0, 3)))
    return tuple((v, e) for v, e in pairs if e)


def _rand_poly(rng, big=False):
    out = {}
    for _ in range(rng.randint(0, 6)):
        c = rng.randint(-(10 ** 40), 10 ** 40) if big else \
            rng.randint(-9, 9)
        if c:
            out[_rand_mono(rng)] = c
    return out


def test_kernel_mul_commutes_and_distributes():
    rng = random.Random(311)
    for _ in range(100):
        p, q, r = (_rand_poly(rng) for _ in range(3))
        assert kernels.poly_mul(p, q) == kernels.poly_mul(q, p)
        lhs = kernels.poly_mul(p, kernels.poly_add(q, r))
        rhs = kernels.poly_add(kernels.poly_mul(p, q),
                               kernels.poly_mul(p, r))
        assert lhs == rhs
