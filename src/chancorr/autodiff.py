"""Reverse-mode automatic differentiation over dense numpy arrays.

A minimal define-by-run engine: every operation on `Tensor` records its
parent tensors together with a backward closure, and ``Tensor.backward()``
walks the recorded graph once in reverse topological order, accumulating
gradients into the ``.grad`` slot of every tensor that requires them.

Conventions
-----------
* Non-finite values are an error state, never a result.  With grad
  recording on, every forward result is checked for NaN/Inf and raises
  `NonFiniteError` on violation.  Under ``no_grad`` the ops do only the
  arithmetic and let NaN/Inf propagate; each caller that evaluates under
  ``no_grad`` checks its final output once with `check_finite`.
* ``softmax`` subtracts the per-slice maximum before exponentiation;
  ``layer_norm`` normalises over the last axis with eps `LAYER_NORM_EPS`.
* Hard gates (``relu`` here, threshold masks downstream) follow the
  subgradient convention: gradient 1 on kept entries, 0 on dropped ones.
  Gate decisions can be traced (see ``record_gates``) so the finite
  difference checker can exclude coordinates whose perturbation flips a
  gate, where a two-sided difference quotient is meaningless.
* Graph recording is single-threaded.  Tensors with ``requires_grad=False``
  are immutable constants as far as the engine is concerned and may be
  shared freely; inference over independent inputs may run on separate
  graphs concurrently as long as no parameter update interleaves.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "NonFiniteError",
    "GraphError",
    "NonDeterministicError",
    "check_finite",
    "as_tensor",
    "constant",
    "parameter",
    "no_grad",
    "record_gates",
    "add",
    "subtract",
    "multiply",
    "divide",
    "matmul",
    "scale",
    "power",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "softplus",
    "relu",
    "softmax",
    "layer_norm",
    "tensor_sum",
    "mean",
    "expand",
    "reshape",
    "transpose",
    "take_slice",
    "cosine_similarity_matrix",
    "mse_loss",
    "grad_check",
    "GradCheckReport",
    "ParamCheckResult",
]


class ShapeMismatchError(ValueError):
    """Operands cannot be combined under the op's shape rules."""


class NonFiniteError(FloatingPointError):
    """A forward pass produced NaN or Inf."""


class GraphError(RuntimeError):
    """Backward called on an invalid target (non-scalar, detached, reused)."""


class NonDeterministicError(RuntimeError):
    """Two evaluations of a supposedly pure function disagreed."""


LAYER_NORM_EPS = 1e-5
COSINE_EPS = 1e-24  # added to squared row norms in cosine similarity

_grad_enabled = True
_gate_sink: list | None = None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def record_gates(sink: list | None):
    """Collect gate decisions (relu / threshold supports) into ``sink``.

    Each gated op appends a packed boolean array describing which entries
    were kept.  Comparing sinks from two forward passes tells the gradient
    checker whether a perturbation crossed a gate boundary.  A ``None``
    sink records nothing.
    """
    global _gate_sink
    prev = _gate_sink
    _gate_sink = sink
    try:
        yield sink
    finally:
        _gate_sink = prev


def trace_gate(kept: np.ndarray) -> None:
    """Report a gate decision to the active trace, if any."""
    if _gate_sink is not None:
        _gate_sink.append(np.packbits(np.asarray(kept, dtype=bool), axis=None))


def check_finite(data: np.ndarray, op: str) -> None:
    """Raise `NonFiniteError` if ``data`` holds a NaN or an Inf."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode AD."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: list[tuple["Tensor", object]] | None = None
        self._backward_ran = False

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward --------------------------------------------------------
    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar.

        Raises `GraphError` if the tensor is not a scalar, is detached from
        any recorded graph, or if backward already ran on this recording.
        """
        if self.size != 1:
            raise GraphError("backward target must be a scalar")
        if self._parents is None and not self.requires_grad:
            raise GraphError("backward on a detached graph (nothing was recorded)")
        if self._backward_ran:
            raise GraphError("backward already ran on this graph; re-record the forward pass")
        self._backward_ran = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._parents:
                for parent, _ in node._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        grads: dict[int, np.ndarray] = {
            id(self): np.ones_like(self.data)
        }
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
            if not node._parents:
                continue
            for parent, fn in node._parents:
                contribution = fn(g)
                if contribution is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False)


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _result(data: np.ndarray, parents, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._backward_ran = False
    if _grad_enabled:
        check_finite(data, op)
        live = [(p, fn) for p, fn in parents if p.requires_grad or p._parents is not None]
        out._parents = live if live else None
    else:
        out._parents = None
    return out


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy broadcasting: reduce ``grad`` back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcastable(a_shape: tuple, b_shape: tuple, op: str) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError as err:
        raise ShapeMismatchError(f"{op}: cannot broadcast {a_shape} with {b_shape}") from err


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "add")
    data = a.data + b.data
    return _result(
        data,
        [
            (a, lambda g, s=a.shape: _sum_to_shape(g, s)),
            (b, lambda g, s=b.shape: _sum_to_shape(g, s)),
        ],
        "add",
    )


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "subtract")
    data = a.data - b.data
    return _result(
        data,
        [
            (a, lambda g, s=a.shape: _sum_to_shape(g, s)),
            (b, lambda g, s=b.shape: _sum_to_shape(-g, s)),
        ],
        "subtract",
    )


def multiply(a, b) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "multiply")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data * b.data
    # C-ordered products, so that ``_sum_to_shape`` reduces in the same
    # order whether the other operand broadcasts or is a full copy
    return _result(
        data,
        [
            (a, lambda g, o=b.data, s=a.shape: _sum_to_shape(np.multiply(g, o, order="C"), s)),
            (b, lambda g, o=a.data, s=b.shape: _sum_to_shape(np.multiply(g, o, order="C"), s)),
        ],
        "multiply",
    )


def divide(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "divide")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        data = a.data / b.data
    return _result(
        data,
        [
            (a, lambda g, o=b.data, s=a.shape: _sum_to_shape(g / o, s)),
            (b, lambda g, num=a.data, den=b.data, s=b.shape: _sum_to_shape(-g * num / (den * den), s)),
        ],
        "divide",
    )


def scale(x, alpha: float) -> Tensor:
    x = as_tensor(x)
    alpha = float(alpha)
    data = x.data * alpha
    return _result(data, [(x, lambda g: g * alpha)], "scale")


def power(x, p: float) -> Tensor:
    """Elementwise x**p for a real exponent p (p is not differentiated)."""
    x = as_tensor(x)
    p = float(p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        data = x.data**p

    def grad_x(g, xd=x.data):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return g * p * xd ** (p - 1.0)

    return _result(data, [(x, grad_x)], "power")


def sqrt(x) -> Tensor:
    return power(x, 0.5)


def matmul(a, b) -> Tensor:
    """Matrix product of (..., n, k) and (..., k, m) operands; leading batch
    dimensions broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul requires at least 2-d operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            data = a.data @ b.data
    except ValueError as err:
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}") from err

    def grad_a(g, bd=b.data, s=a.shape):
        return _sum_to_shape(g @ bd.swapaxes(-1, -2), s)

    def grad_b(g, ad=a.data, s=b.shape):
        return _sum_to_shape(ad.swapaxes(-1, -2) @ g, s)

    return _result(data, [(a, grad_a), (b, grad_b)], "matmul")


# ---------------------------------------------------------------------------
# nonlinearities


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        data = np.exp(x.data)
    return _result(data, [(x, lambda g, d=data: g * d)], "exp")


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(x.data)
        except FloatingPointError as err:
            raise NonFiniteError("log of a non-positive value") from err
    return _result(data, [(x, lambda g, xd=x.data: g / xd)], "log")


def tanh(x) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)
    return _result(data, [(x, lambda g, d=data: g * (1.0 - d * d))], "tanh")


def _logistic(xd: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with ``exp`` evaluated on the non-positive side
    only, for overflow safety."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _logistic(x.data)
    return _result(out, [(x, lambda g, d=out: g * d * (1.0 - d))], "sigmoid")


def softplus(x) -> Tensor:
    x = as_tensor(x)
    data = np.logaddexp(0.0, x.data)
    sig = _logistic(x.data)
    return _result(data, [(x, lambda g, s=sig: g * s)], "softplus")


def relu(x) -> Tensor:
    """max(x, 0); a NaN input stays NaN in the output."""
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)
    if _gate_sink is not None:
        trace_gate(data > 0)
    return _result(data, [(x, lambda g, d=data: g * (d > 0))], "relu")


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def grad_x(g, s=data, ax=axis):
        dot = (g * s).sum(axis=ax, keepdims=True)
        return s * (g - dot)

    return _result(data, [(x, grad_x)], "softmax")


def layer_norm(x) -> Tensor:
    """Normalise over the last axis to zero mean / unit variance (no affine)."""
    x = as_tensor(x)
    with np.errstate(invalid="ignore"):
        mu = x.data.mean(axis=-1, keepdims=True)
        centred = x.data - mu
        var = (centred * centred).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        norm = centred * inv

    def grad_x(g, n=norm, iv=inv):
        gm = g.mean(axis=-1, keepdims=True)
        gn = (g * n).mean(axis=-1, keepdims=True)
        return iv * (g - gm - n * gn)

    return _result(norm, [(x, grad_x)], "layer_norm")


# ---------------------------------------------------------------------------
# reductions and structure


def _unreduce(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Spread the gradient of a reduction over ``axis`` back to ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis, keepdims=keepdims))
    return _result(
        data, [(x, lambda g, s=x.shape: _unreduce(g, s, axis, keepdims))], "sum")


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    """Mean pooling over ``axis`` (all axes when None)."""
    x = as_tensor(x)
    data = np.asarray(x.data.mean(axis=axis, keepdims=keepdims))
    count = x.size // max(data.size, 1)
    return _result(
        data, [(x, lambda g, s=x.shape: _unreduce(g / count, s, axis, keepdims))],
        "mean")


def expand(x, shape: tuple) -> Tensor:
    """Broadcast ``x`` to ``shape`` (inverse on backward: sum the copies)."""
    x = as_tensor(x)
    try:
        data = np.broadcast_to(x.data, shape).copy()
    except ValueError as err:
        raise ShapeMismatchError(f"expand: {x.shape} -> {shape}") from err
    return _result(data, [(x, lambda g, s=x.shape: _sum_to_shape(g, s))], "expand")


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as err:
        raise ShapeMismatchError(f"reshape: {x.shape} -> {shape}") from err
    return _result(data, [(x, lambda g, s=x.shape: g.reshape(s))], "reshape")


def transpose(x, axes=None) -> Tensor:
    x = as_tensor(x)
    data = np.transpose(x.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return _result(data, [(x, lambda g, inv=inverse: np.transpose(g, inv))], "transpose")


def take_slice(x, index) -> Tensor:
    """Basic (view-style) indexing with gradient scatter on backward."""
    x = as_tensor(x)
    data = x.data[index]

    def grad_x(g, shape=x.shape, idx=index):
        out = np.zeros(shape, dtype=g.dtype)
        out[idx] = g
        return out

    return _result(np.asarray(data), [(x, grad_x)], "slice")


# ---------------------------------------------------------------------------
# composite helpers


def cosine_similarity_matrix(x) -> Tensor:
    """Pairwise cosine similarity of the rows of a 2-d (or stacked) tensor.

    For input (..., N, D) returns (..., N, N).  Zero rows get similarity 0
    thanks to the `COSINE_EPS` guard inside the norm.
    """
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeMismatchError("cosine_similarity_matrix expects at least 2 dims")
    sq = multiply(x, x)
    norms = sqrt(add(tensor_sum(sq, axis=-1, keepdims=True), constant(COSINE_EPS)))
    unit = divide(x, norms)
    return matmul(unit, transpose(unit, axes=tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)))


def mse_loss(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    diff = subtract(pred, target)
    return mean(multiply(diff, diff))


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class ParamCheckResult:
    name: str
    max_rel_err: float
    checked: int
    excluded: int

    def __str__(self):
        return (
            f"{self.name}: max_rel_err={self.max_rel_err:.3e} "
            f"({self.checked} coords checked, {self.excluded} gate-excluded)"
        )


@dataclass
class GradCheckReport:
    results: list[ParamCheckResult] = field(default_factory=list)
    tol: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        errs = [r.max_rel_err for r in self.results if r.checked]
        return max(errs) if errs else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def __str__(self):
        lines = [str(r) for r in self.results]
        lines.append(f"overall max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e} "
                     f"-> {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _gate_signature(trace: list) -> bytes:
    return b"".join(np.ascontiguousarray(t).tobytes() for t in trace)


def _evaluate(f, trace: list | None = None) -> Tensor:
    """``f()`` without recording; its value must be finite."""
    with no_grad(), record_gates(trace):
        value = f()
    check_finite(value.data, "grad_check: f()")
    return value


def grad_check(
    f,
    params,
    step: float = 1e-5,
    tol: float = 1e-4,
    max_entries_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` is a zero-argument closure returning a scalar `Tensor`; ``params``
    is a sequence of ``(name, Tensor)`` pairs it reads.  The check

    * first evaluates ``f`` twice and demands bit-identical values (a
      non-deterministic ``f`` invalidates differencing),
    * runs one recorded forward/backward for the analytic gradients,
    * then perturbs each selected coordinate by ±step and compares the
      central difference quotient, skipping (and counting) coordinates
      whose perturbation flips any gate decision -- across a hard gate the
      two-sided quotient estimates nothing.

    Any evaluation of ``f`` that is not finite raises `NonFiniteError`.
    Relative error uses ``|fd - an| / max(|fd|, |an|, 1.0)`` so that tiny
    gradients are compared absolutely.
    """
    params = list(params)
    base_trace: list = []
    first = _evaluate(f, base_trace)
    second = _evaluate(f)
    if first.data.tobytes() != second.data.tobytes():
        raise NonDeterministicError("f() returned different values on repeated evaluation")

    for _, p in params:
        p.grad = None
    loss = f()
    loss.backward()

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol=tol)
    base_sig = _gate_signature(base_trace)

    for name, p in params:
        if not p.data.flags.c_contiguous:
            p.data = np.ascontiguousarray(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            coords = np.sort(rng.choice(n, size=max_entries_per_param, replace=False))
        else:
            coords = np.arange(n)
        analytic = np.zeros(n) if p.grad is None else p.grad.reshape(-1)
        max_err = 0.0
        checked = 0
        excluded = 0
        for c in coords:
            original = flat[c]
            trace_plus: list = []
            trace_minus: list = []
            try:
                flat[c] = original + step
                f_plus = _evaluate(f, trace_plus).item()
                flat[c] = original - step
                f_minus = _evaluate(f, trace_minus).item()
            finally:
                flat[c] = original
            if _gate_signature(trace_plus) != base_sig or _gate_signature(trace_minus) != base_sig:
                excluded += 1
                continue
            fd = (f_plus - f_minus) / (2.0 * step)
            an = analytic[c]
            err = abs(fd - an) / max(abs(fd), abs(an), 1.0)
            max_err = max(max_err, err)
            checked += 1
        report.results.append(ParamCheckResult(name, max_err, checked, excluded))

    return report
