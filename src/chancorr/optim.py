"""Adam optimiser for `Tensor` parameters.

Standard bias-corrected Adam:

    m <- b1*m + (1-b1)*g         v <- b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)       v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

Parameters with a ``None`` gradient are skipped: they do not move and
their moments do not decay.  The shared step count ``t`` still advances,
so their next update uses that step's bias correction.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 lr_scales=None):
        self.params: list[Tensor] = list(params)
        if not all(p.requires_grad for p in self.params):
            raise ValueError("Adam expects parameters with requires_grad=True")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        if lr_scales is None:
            self.lr_scales = [1.0] * len(self.params)
        else:
            self.lr_scales = [float(s) for s in lr_scales]
            if len(self.lr_scales) != len(self.params):
                raise ValueError("lr_scales must match the number of parameters")
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v, scale in zip(self.params, self._m, self._v, self.lr_scales):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= scale * self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
