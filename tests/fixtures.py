"""Frozen expected values for the classification, and seeded polynomial
layers with known rational roots.

The sixteen rows and the three (k, N, rkPic) groupings were transcribed
by hand and are kept independent of the enumeration code on purpose:
the tests compare the computed table against these literals.

Row layout:
(case, r, l, m, k_sigma2, num_C, rk_pic, k_sigma4, N, n2, n3, n4, k,
 elliptic_action, fiber_action)
"""

import math
import random
from fractions import Fraction

from k3auto.polynomial import RationalPolynomial

TABLE_ROWS = [
    (1, 3, 3, 2, 0, 2, 10, 0, 2, 2, 0, 0, 0,
     "identity", "order four"),
    (2, 3, 3, 2, 0, 2, 10, 0, 2, 2, 0, 0, 0,
     "translation of order two", "order four"),
    (3, 3, 3, 2, 0, 2, 10, 0, 2, 2, 0, 0, 0,
     "translation of order four", "order four"),
    (4, 5, 1, 2, 0, 2, 10, 0, 6, 0, 2, 4, 0,
     "involution", "order four"),
    (5, 6, 4, 2, 1, 1, 14, 4, 4, 1, 1, 2, 0,
     "identity", "reflection of IV*"),
    (6, 6, 4, 2, 1, 1, 14, 4, 4, 1, 1, 2, 0,
     "translation of order two", "reflection of IV*"),
    (7, 6, 4, 2, 1, 1, 14, 4, 4, 1, 1, 2, 0,
     "translation of order four", "reflection of IV*"),
    (8, 6, 6, 1, 2, 1, 14, 4, 2, 2, 0, 0, 0,
     "order four", "rotation of order 2 on I_8"),
    (9, 4, 4, 3, 0, 1, 14, 4, 2, 2, 0, 0, 0,
     "order four", "rotation of order 4 on I_8"),
    (10, 8, 4, 1, 2, 1, 14, 4, 6, 0, 2, 4, 0,
     "order four", "reflection on I_8"),
    (11, 10, 0, 2, 1, 1, 14, 4, 10, 3, 3, 4, 1,
     "involution", "preserves each curve of IV*"),
    (12, 10, 2, 1, 2, 1, 14, 4, 8, 4, 2, 2, 1,
     "order four", "preserves each curve of I_8"),
    (13, 9, 9, 0, 4, 1, 18, 8, 2, 2, 0, 0, 0,
     "order four", "rotation of order 2 on I_16"),
    (14, 5, 5, 4, 0, 1, 18, 8, 2, 2, 0, 0, 0,
     "order four", "rotation of order 4 on I_16"),
    (15, 11, 7, 0, 4, 1, 18, 8, 6, 0, 2, 4, 0,
     "order four", "reflection on I_16"),
    (16, 17, 1, 0, 4, 1, 18, 8, 14, 6, 4, 4, 2,
     "order four", "preserves each curve of I_16"),
]

# (k, N, rk Pic) lists, split by where the genus-1 curve sits in the
# fixed loci of the powers: fixed by the order-8 action itself, only by
# its square, or by neither.
GROUP_CURVE_FIXED = [(0, 2, 10), (0, 4, 14)]

GROUP_SQUARE_FIXED = [(0, 2, 10), (0, 6, 10), (0, 4, 14), (1, 10, 14)]

GROUP_NOT_FIXED = [(0, 2, 10), (0, 4, 14), (0, 2, 14), (0, 6, 14),
                   (1, 8, 14), (0, 2, 18), (0, 6, 18), (2, 14, 18)]


def row_key(entry):
    """Multiset key: every table column except the case number."""
    return tuple(entry[1:13]) + (entry[13], entry[14])


def classification_key(row):
    """The same key computed from a ClassificationRow."""
    return (row.r, row.l, row.m, row.k_sigma2, row.num_c, row.rk_pic,
            row.k_sigma4, row.N, row.n2, row.n3, row.n4, row.k,
            row.action[0], row.action[1])


def _wide_layers():
    """[(layer, its rational roots sorted, cofactor)]: squarefree layers
    built as products of linear factors (v t - u), for v = 10 and v = 21,
    and a cofactor without real roots, a product of quadratics with a
    negative discriminant; half of them also have the root 0.

    Each lead is 210 times a number of 1 to 58 digits, so it is divisible
    by 2, 3, 5 and 7, as the root denominators are, and a root search must
    pass those primes over.  The layers have degree 4 or 19, leads of 3 to
    61 digits and other coefficients of up to about 600.
    """
    rng = random.Random(2021)
    t = RationalPolynomial.variable()
    out = []
    for digits in (3, 12, 30, 60):
        for zero, quadratics in ((False, 1), (True, 8)):
            roots = [Fraction(0)] if zero else []
            for v in (10, 21):
                u = rng.randrange(1, 10 ** digits)
                while math.gcd(u, v) != 1:
                    u += 1
                roots.append(Fraction(rng.choice((-u, u)), v))
            cofactor = RationalPolynomial.constant(1)
            for i in range(quadratics):
                a = (rng.randrange(10 ** (digits - 3), 10 ** (digits - 2))
                     if i == 0 else 1)
                c = rng.randrange(1, 10 ** digits)
                b = math.isqrt(4 * a * c - 1)
                cofactor *= a * t ** 2 + rng.randint(-b, b) * t + c
            layer = cofactor
            for root in roots:
                layer *= root.denominator * t - root.numerator
            out.append((layer, sorted(roots), cofactor))
    return out


WIDE_LAYERS = _wide_layers()
