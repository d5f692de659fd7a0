"""Independent reference for the entropy tests, in plain Python floats.

Partitions are explicit lists of basis indices and every logarithm is
``math.log``.  Nothing here comes from ``obsent.entropy``, so comparing the
package against these functions does not compare its kernel with itself.
"""

import math


def contiguous_blocks(L, m):
    """Blocks [0..m-1], [m..2m-1], ... of 0..L-1 as index lists."""
    return [list(range(start, start + m)) for start in range(0, L, m)]


def observational_entropy(amp2, blocks):
    """-sum p ln p + sum p ln V, with p_i the summed weight ``amp2`` over
    block i, V_i its size, and 0 ln 0 = 0."""
    total = 0.0
    for block in blocks:
        p = math.fsum(float(amp2[i]) for i in block)
        if p > 0.0:
            total += p * (math.log(len(block)) - math.log(p))
    return total


def is_rougher(blocks1, blocks2):
    """True iff every block of ``blocks2`` lies inside one block of ``blocks1``."""
    return all(any(set(b2) <= set(b1) for b1 in blocks1) for b2 in blocks2)
