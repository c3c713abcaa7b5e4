"""Taped ``matmul`` and ``transpose2`` for the bit-identity oracles.

The model records neither: ``attention`` and ``factorized_linear`` fuse
them away. The tests rebuild those fused nodes node by node from these two
and the package's own primitives, so that backward sums into each
``.grad`` in the unfused order, and compare every bit.
"""

import numpy as np

from divcontrol import tensor as T


def matmul(a, b):
    """np.matmul semantics for operands of ndim >= 2, batch dims broadcast."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    out = T.Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return T._unbroadcast(ga, a.data.shape), T._unbroadcast(gb, b.data.shape)

    return T._record(out, (a, b), vjp)


def transpose2(a):
    """Swap the last two axes."""
    a = T.as_tensor(a)
    out = T.Tensor(np.swapaxes(a.data, -1, -2))
    return T._record(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))
