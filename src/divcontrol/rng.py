"""Deterministic named random streams.

Every stochastic draw in the toolkit (weight init, noise, timestep draws,
batch composition, dropout masks) comes from a stream addressed by a root
seed plus a path of name parts. The derivation is::

    child_seed = little-endian uint64 of SHA-256("{seed}/{part}/{part}...")[0:8]
    generator  = numpy PCG64(child_seed)

Streams are stateless with respect to the run: step ``s`` always uses
``stream(seed, "step", s)``, so interrupting and resuming a run reproduces
the exact draw sequence. Any implementation that follows this recipe
byte-for-byte reproduces every random number this one produces.

Reserved stream paths (root: the run's ``seed`` unless noted):

========================  ==================================================
``("init", name)``        parameter initialisation, one stream per parameter
``("batch", b)``          image and condition indices of training batch ``b``
``("step", s)``           all per-step training randomness, drawn in a fixed
                          documented order (see training.train_steps)
``("image", i)``          synthetic base image number ``i``
``("adapt-image", i)``    few-shot adaptation image number ``i``
``("eval", i)``           held-out evaluation image number ``i``
``("eval-noise",)``       timesteps and noise of the held-out loss
``("sample", i)``         ancestral sampling noise for generated image ``i``
``("e2e-data",)``         data of the end-to-end gradcheck case
``("gradcheck", case)``   inputs of one registered gradcheck case
``("embed-table",)``      frozen instruction-token embedding table (root:
                          ``encoder_seed``)
``("vision-encoder",)``   frozen image-patch encoder projection (root:
                          ``encoder_seed``)
``("perm", cond_id)``     patch permutation of a shuffle condition (fixed
                          root 1337)
========================  ==================================================
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_seed(seed: int, *parts) -> int:
    """Derive the 64-bit child seed for a named stream."""
    key = "/".join([str(int(seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *parts) -> np.random.Generator:
    """Return the generator for a named stream rooted at ``seed``."""
    return np.random.Generator(np.random.PCG64(stream_seed(seed, *parts)))
