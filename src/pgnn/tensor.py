"""Dense float64 matrices and a minimal reverse-mode differentiation tape.

A :class:`Tape` records matrix-level operations as an append-only list of
nodes.  :meth:`Tape.backward` walks the recording in reverse topological
order from a scalar terminal and returns the gradient of every leaf,
summing over repeated uses.  There is no broadcasting beyond the explicit
``scale_rows`` op and no in-place mutation anywhere on the tape.

The tape keeps a leaf's array.  An op's output lives while its
:class:`Value` or a backward that reads it does, so an epoch's temporaries
are freed as they are consumed, not when the tape goes.

Finite checks run where bad values can enter or leave the tape: on leaves,
on ``scale_rows``' scale, on the loss ``bce_with_logits`` returns and on the
gradients ``adam_step`` takes.  Op outputs are not scanned: on finite inputs
an op goes non-finite only by overflowing, and the loss or the gradients
then carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csc_matrix
from scipy.special import expit


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _checked(a: np.ndarray) -> None:
    """Mark ``a`` read-only, once it is known to be 2-d; finiteness is
    checked at the tape's boundary, not here."""
    if a.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {a.shape}")
    a.setflags(write=False)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite (no NaN/Inf)")
    return a


@dataclass(frozen=True, eq=False)
class Value:
    """Handle to one node recorded on a tape; carries the read-only forward array."""

    tape: "Tape"
    id: int
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


class _Node:
    """A leaf keeps its array; an op keeps only what its backward closes over."""

    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents, backward):
        self.data = data
        self.parents = parents
        self.backward = backward


class Tape:
    """Append-only recording of matrix ops; single-writer, one run each."""

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        # memo pins the key array (id() values must stay unique while we live)
        # and keeps node ids: a Value would make the tape wait for the cyclic GC
        self._leaf_memo: dict[int, tuple[np.ndarray, int]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, data: np.ndarray, parents: tuple[int, ...],
                backward: Callable | None) -> Value:
        _checked(data)
        self._nodes.append(_Node(data if backward is None else None, parents, backward))
        return Value(self, len(self._nodes) - 1, data)

    def _own(self, *vals: Value) -> None:
        for v in vals:
            if v.tape is not self:
                raise ValueError("value belongs to a different tape")

    # ------------------------------------------------------------------
    # inputs

    def leaf(self, values) -> Value:
        """Register an input/parameter matrix.

        Re-registering the same array object returns the original node, so
        the parameter leaves ``train`` registers before a forward are the
        nodes that forward uses; that is the memo's only purpose.
        """
        if isinstance(values, np.ndarray):
            memo = self._leaf_memo.get(id(values))
            if memo is not None:
                return Value(self, memo[1], self._nodes[memo[1]].data)
        out = self._record(_finite(np.array(values, dtype=np.float64), "matrix entries"),
                           (), None)
        if isinstance(values, np.ndarray):
            self._leaf_memo[id(values)] = (values, out.id)
        return out

    # ------------------------------------------------------------------
    # ops

    def matmul(self, a: Value, b: Value) -> Value:
        self._own(a, b)
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} x {b.shape}")
        ad, bd = a.data, b.data

        def back(g):
            return g @ bd.T, ad.T @ g

        return self._record(ad @ bd, (a.id, b.id), back)

    def add(self, a: Value, b: Value) -> Value:
        self._own(a, b)
        if a.shape != b.shape:
            raise ShapeError(f"add: {a.shape} vs {b.shape}")

        def back(g):
            return g, g

        return self._record(a.data + b.data, (a.id, b.id), back)

    def hadamard(self, a: Value, b: Value) -> Value:
        self._own(a, b)
        if a.shape != b.shape:
            raise ShapeError(f"hadamard: {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data

        def back(g):
            return g * bd, g * ad

        return self._record(ad * bd, (a.id, b.id), back)

    def scale_rows(self, a: Value, s) -> Value:
        """Multiply row i of ``a`` by ``s[i, 0]``; the scale is data, not a tape input."""
        self._own(a)
        sd = np.asarray(s, dtype=np.float64)
        if sd.shape != (a.shape[0], 1):
            raise ShapeError(f"scale_rows: {a.shape} vs scale {sd.shape}")
        _finite(sd, "scale_rows: scale")

        def back(g):
            return (g * sd,)

        return self._record(a.data * sd, (a.id,), back)

    def concat_cols(self, a: Value, b: Value) -> Value:
        self._own(a, b)
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"concat_cols: {a.shape} vs {b.shape}")
        split = a.shape[1]

        def back(g):
            return g[:, :split], g[:, split:]

        return self._record(np.hstack((a.data, b.data)), (a.id, b.id), back)

    def gather_rows(self, a: Value, idx) -> Value:
        """Select rows of ``a`` by index; gradient scatters back by sum.

        The index vector is data, not a differentiable input.  The backward
        multiplies by the transpose of the pick matrix (row i holds 1.0 at
        column idx[i]), listed column by column in CSC, so each output row
        adds its rows in index order, as ``np.add.at`` on zeros.
        """
        self._own(a)
        rows = a.shape[0]
        ix = np.asarray(idx, dtype=np.int64)
        if ix.ndim != 1:
            raise ShapeError(f"gather_rows: index must be 1-d, got {ix.shape}")
        if ix.size and (ix.min() < 0 or ix.max() >= rows):
            raise ValueError("gather_rows: index out of range")

        def back(g):
            pick_t = csc_matrix((np.ones(ix.size), ix, np.arange(ix.size + 1)),
                                shape=(rows, ix.size))
            return (pick_t @ g,)

        return self._record(a.data[ix], (a.id,), back)

    def spmm(self, s, a: Value) -> Value:
        """``S @ a`` for a fixed scipy CSR matrix ``s``; the backward is ``S.T @ g``.

        The operator is data, not a tape input.  scipy adds each row's stored
        entries in their stored order, and ``s.T``, a CSC view of the same
        arrays, adds each gradient row's entries in S's row order."""
        self._own(a)
        if s.shape[1] != a.shape[0]:
            raise ShapeError(f"spmm: {s.shape} x {a.shape}")

        def back(g):
            return (s.T @ g,)

        return self._record(s @ a.data, (a.id,), back)

    def reshape(self, a: Value, rows: int, cols: int) -> Value:
        """The entries of ``a`` in row-major order as a rows x cols matrix."""
        self._own(a)
        if rows * cols != a.shape[0] * a.shape[1]:
            raise ShapeError(f"reshape: {a.shape} to ({rows}, {cols})")
        shape = a.shape

        def back(g):
            return (g.reshape(shape),)

        return self._record(a.data.reshape(rows, cols), (a.id,), back)

    def relu(self, a: Value) -> Value:
        """max(a, 0); the backward masks by its own output, which is > 0.0
        exactly where ``a`` is, so ``a``'s array need not outlive the call."""
        self._own(a)
        out = np.maximum(a.data, 0.0)

        def back(g):
            return (g * (out > 0.0),)

        return self._record(out, (a.id,), back)

    def bce_with_logits(self, logits: Value, targets) -> Value:
        """Mean binary cross-entropy over a column of logits.

        Computed in the stable branch form log(1 + exp(-x)) + (1 - y) * x,
        so loss and gradient stay finite for any finite logit.  Targets
        are plain 0/1 data, not a tape input.  A non-finite loss (an
        upstream op overflowed) raises ValueError.
        """
        self._own(logits)
        if logits.shape[1] != 1:
            raise ShapeError(f"bce_with_logits: logits must be a column, got {logits.shape}")
        t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        if t.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"bce_with_logits: logits {logits.shape} vs targets ({t.shape[0]},)")
        if not np.all((t == 0.0) | (t == 1.0)):
            raise ValueError("bce_with_logits: targets must be 0 or 1")
        x = logits.data
        m = x.shape[0]
        per = np.logaddexp(0.0, -x) + (1.0 - t) * x
        out = _finite(np.array([[per.mean()]]), "bce_with_logits: loss")

        def back(g):
            return (g[0, 0] * (expit(x) - t) / m,)

        return self._record(out, (logits.id,), back)

    # ------------------------------------------------------------------
    # reverse pass

    def backward(self, terminal: Value) -> dict[int, np.ndarray]:
        """Gradients of a scalar terminal w.r.t. every leaf on the tape.

        Returns a table keyed by leaf id.  Leaves that do not reach the
        terminal get exact zeros.  A non-leaf node's gradient is dropped
        once it has been passed to its parents.  The tape is not mutated,
        so calling backward again gives identical results.
        """
        self._own(terminal)
        if terminal.shape != (1, 1):
            raise ValueError(
                f"backward terminal must be a 1x1 scalar, got {terminal.shape}")
        grads = {terminal.id: np.ones((1, 1))}
        for nid in range(terminal.id, -1, -1):
            node = self._nodes[nid]
            if node.backward is None or nid not in grads:
                continue
            for pid, contrib in zip(node.parents, node.backward(grads.pop(nid))):
                grads[pid] = grads[pid] + contrib if pid in grads else contrib
        return {nid: grads[nid] if nid in grads else np.zeros(node.data.shape)
                for nid, node in enumerate(self._nodes) if node.backward is None}


# ----------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    step: int
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    @classmethod
    def fresh(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(step=0,
                   m=tuple(np.zeros_like(p) for p in params),
                   v=tuple(np.zeros_like(p) for p in params))


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
              state: AdamState | None, lr: float = 0.01, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8,
              ) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; pure, returns new params and state.

    A NaN or Inf gradient raises ValueError.
    """
    if len(params) != len(grads):
        raise ShapeError(f"adam_step: {len(params)} params vs {len(grads)} grads")
    if state is None:
        state = AdamState.fresh(params)
    if len(state.m) != len(params):
        raise ShapeError(f"adam_step: state tracks {len(state.m)} params, got {len(params)}")
    t = state.step + 1
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"adam_step: param {p.shape} vs grad {g.shape}")
        if m.shape != p.shape or v.shape != p.shape:
            raise ShapeError(f"adam_step: state moments {m.shape} vs param {p.shape}")
        _finite(g, "adam_step: gradient")
        m2 = beta1 * m + (1.0 - beta1) * g
        v2 = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m2 / (1.0 - beta1 ** t)
        v_hat = v2 / (1.0 - beta2 ** t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_p, AdamState(step=t, m=tuple(new_m), v=tuple(new_v))
