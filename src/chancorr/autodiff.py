"""Reverse-mode automatic differentiation over dense numpy arrays.

A minimal define-by-run engine: every recorded op gives its output a node
of edges, each a backward closure and its parent's node, or the parent
itself if it is a ``requires_grad`` leaf.  So an op output is freed once
dropped unless a closure holds its array.  ``Tensor.backward()`` walks the
nodes in reverse topological order, accumulating into each leaf's ``.grad``,
and consumes each node it passes, so a recording is walked at most once.
Ops defined outside this module (the projection layer, the contrastive
op) record through `_result` in the same way.

Conventions
-----------
* Non-finite values are an error state, never a result.  With grad
  recording on, every forward result is checked for NaN/Inf and raises
  `NonFiniteError` on violation.  Under ``no_grad`` the ops do only the
  arithmetic and let NaN/Inf propagate; each caller that evaluates under
  ``no_grad`` checks its final output once with `check_finite`.
* Hard gates (the projection layer's relus, the relu of the correlation
  estimator's V, and the boolean supports of the contrastive op) follow
  the subgradient convention:
  gradient 1 on kept entries, 0 on dropped ones.  Gate decisions can be
  traced (see ``record_gates``) so the finite difference checker can
  exclude coordinates whose perturbation flips a gate, where a two-sided
  difference quotient is meaningless.
* Graph recording is single-threaded.  Tensors with ``requires_grad=False``
  are immutable constants as far as the engine is concerned and may be
  shared freely; inference over independent inputs may run on separate
  graphs concurrently as long as no parameter update interleaves.
"""

from __future__ import annotations

import contextlib
import math
import threading
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
    "matmul",
    "scale",
    "sigmoid",
    "softplus",
    "tensor_sum",
    "mean",
    "reshape",
    "transpose",
    "unit_rows",
    "window_blocks",
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


COSINE_EPS = 1e-24  # added to squared row norms in cosine similarity

# Bytes one block of windows may occupy in a blocked op, so that its
# operands stay in a per-core L2 cache instead of streaming through DRAM
# (block-size sweeps picked it; see BENCH_6.json and BENCH_7.json).
BLOCK_BYTES = 3 << 19


class _Mode(threading.local):
    """Whether ops record a graph, and where gate decisions go: per thread,
    each starting from these defaults, so no thread's mode reaches another."""
    grad_enabled = True
    gate_sink: list | None = None


_mode = _Mode()


@contextlib.contextmanager
def no_grad():
    """Disable this thread's graph recording inside the context (inference mode)."""
    prev = _mode.grad_enabled
    _mode.grad_enabled = False
    try:
        yield
    finally:
        _mode.grad_enabled = prev


@contextlib.contextmanager
def record_gates(sink: list | None):
    """Collect gate decisions (relus, threshold supports) into ``sink``.

    Each gated op appends a packed boolean array describing which entries
    were kept.  Comparing sinks from two forward passes tells the gradient
    checker whether a perturbation crossed a gate boundary.  A ``None``
    sink records nothing.  Only this thread's gated ops report to it.
    """
    prev = _mode.gate_sink
    _mode.gate_sink = sink
    try:
        yield sink
    finally:
        _mode.gate_sink = prev


def trace_gate(kept: np.ndarray) -> None:
    """Report a gate decision to the active trace, if any: ``kept`` is a
    boolean support, or a relu output whose positive entries were kept."""
    if _mode.gate_sink is not None:
        _mode.gate_sink.append(np.packbits(kept if kept.dtype == bool else kept > 0, axis=None))


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
        self._node: _Node | None = None

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
        """Run reverse-mode accumulation from this scalar over its node tape,
        into the ``.grad`` of every leaf that an edge ends in.  Each node
        drops its edges, and so its closures, once processed.

        Raises `GraphError` if the tensor is not a scalar or is no recorded
        op output, or if the walk reaches a node that an earlier backward
        consumed, from this root or any other.
        """
        if self.size != 1:
            raise GraphError("backward target must be a scalar")
        if self._node is None:
            raise GraphError("backward on a detached graph (nothing was recorded)")

        order: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            edges = getattr(node, "edges", ())
            if edges is None:
                raise GraphError("backward already ran on this graph; re-record the forward pass")
            for parent, _ in edges:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self._node): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if isinstance(node, Tensor):
                if g is not None:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            edges, node.edges = node.edges, None
            if g is None:
                continue
            for parent, fn in edges:
                contribution = fn(g)
                if contribution is None:
                    continue
                key = id(parent)
                grads[key] = grads[key] + contribution if key in grads else contribution


class _Node:
    """One recorded op: (parent node or leaf tensor, backward closure) edges."""
    __slots__ = ("edges",)

    def __init__(self, edges):
        self.edges = edges


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value, requires_grad=False)


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _result(data: np.ndarray, parents, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if _mode.grad_enabled:
        check_finite(data, op)
        live = [(p._node or p, fn) for p, fn in parents if p.requires_grad or p._node]
        out._node = _Node(live) if live else None
    else:
        out._node = None
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


def scale(x, alpha: float) -> Tensor:
    x = as_tensor(x)
    alpha = float(alpha)
    data = x.data * alpha
    return _result(data, [(x, lambda g: g * alpha)], "scale")


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


# ---------------------------------------------------------------------------
# reductions and structure


def _unreduce(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    """Spread the gradient of a reduction over ``axis`` back to ``shape``."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tensor_sum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis))
    return _result(data, [(x, lambda g, s=x.shape: _unreduce(g, s, axis))], "sum")


def mean(x, axis=None) -> Tensor:
    """Mean pooling over ``axis`` (all axes when None)."""
    x = as_tensor(x)
    data = np.asarray(x.data.mean(axis=axis))
    count = x.size // max(data.size, 1)
    return _result(
        data, [(x, lambda g, s=x.shape: _unreduce(g / count, s, axis))], "mean")


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
    inverse = None if axes is None else np.argsort(axes)
    return _result(data, [(x, lambda g, inv=inverse: np.transpose(g, inv))], "transpose")


# ---------------------------------------------------------------------------
# composite helpers


def unit_rows(x: np.ndarray):
    """Rows of ``x`` scaled to unit length over the last axis, as plain
    arrays ``(unit, norms, s2)``: ``s2`` is the squared row norm plus
    `COSINE_EPS` and ``norms`` its square root, so a zero row stays zero
    and ``unit @ unit.T`` is the cosine similarity of the rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.multiply(x, x)            # the squares' buffer holds the result
        s2 = unit.sum(axis=-1, keepdims=True) + COSINE_EPS
        norms = s2 ** 0.5
        return np.divide(x, norms, out=unit), norms, s2


def window_blocks(shape: tuple, window_ndim: int, arrays: int = 1) -> list:
    """Slices of the leading axis of ``shape``, a batch of ``window_ndim``-axis
    windows, each as many windows as keep ``arrays`` float64 window-sized
    arrays in `BLOCK_BYTES`, at least one; one unbatched window is ``[...]``."""
    if len(shape) <= window_ndim:
        return [...]
    size = max(1, BLOCK_BYTES // max(1, 8 * arrays * math.prod(shape[1:])))
    return [slice(lo, lo + size) for lo in range(0, max(shape[0], 1), size)]


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
