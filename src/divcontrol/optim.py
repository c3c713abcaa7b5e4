"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Decay is multiplicative (p *= 1 - lr*wd) and applied before the moment
    update. A parameter whose gradient was always zero is untouched without
    decay and shrinks by exactly (1 - lr*wd) per step with it; after a
    nonzero gradient, momentum keeps moving it on zero-gradient steps.

    Updates happen in place: each parameter's ``.data`` array and the
    moment arrays ``m``/``v`` are overwritten, so a caller holding
    ``p.data`` sees it change, and no two parameters may share memory.
    """

    params: dict
    lr: float
    betas: tuple
    eps: float
    weight_decay: float
    step_count: int = field(default=0)

    def __post_init__(self):
        b1, b2 = self.betas
        if not (0 < b1 < 1 and 0 < b2 < 1):
            raise ContractError("betas must lie in (0, 1)")
        if self.lr < 0 or self.weight_decay < 0:
            raise ContractError("lr and weight_decay must be non-negative")
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float | None = None) -> None:
        """Apply one update using each parameter's .grad (missing grad = 0)."""
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ContractError(f"gradient shape mismatch for '{name}'")
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            if g is None:
                g = 0.0
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            delta = m / bc1
            delta *= lr
            den = v / bc2
            np.sqrt(den, out=den)
            den += self.eps
            delta /= den
            p.data -= delta

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
