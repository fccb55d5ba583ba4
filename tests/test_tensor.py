import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from pgnn.tensor import AdamState, ShapeError, Tape, adam_step

from helpers import max_rel_err, numeric_grad


def operator(dense):
    """A dense matrix as CSR: the operand ``Tape.spmm`` takes."""
    return csr_matrix(np.asarray(dense, dtype=np.float64))


def mean_rows(tape, v):
    """The 1 x cols mean over the rows of ``v``, as a matmul with 1/rows."""
    return tape.matmul(tape.leaf(np.full((1, v.shape[0]), 1.0 / v.shape[0])), v)


def test_leaf_rejects_nan_inf_and_wrong_ndim():
    with pytest.raises(ValueError):
        Tape().leaf([[1.0, np.nan]])
    with pytest.raises(ValueError):
        Tape().leaf([[np.inf]])
    with pytest.raises(ShapeError):
        Tape().leaf([1.0, 2.0])
    with pytest.raises(ShapeError):
        Tape().leaf(np.zeros((2, 2, 2)))


def test_leaf_is_a_read_only_copy():
    a = np.array([[1.0, 2.0]])
    tape = Tape()
    v = tape.leaf(a)
    with pytest.raises(ValueError):
        v.data[0, 0] = 5.0
    a[0, 0] = 7.0  # the caller's array stays writable and apart from the tape
    assert v.data[0, 0] == 1.0
    assert not tape.add(v, v).data.flags.writeable  # so are op outputs


def test_leaf_memo_returns_same_node_for_same_array():
    tape = Tape()
    a = np.ones((2, 2))
    v1 = tape.leaf(a)
    v2 = tape.leaf(a)
    assert v1.id == v2.id
    # an equal but distinct array gets its own node
    v3 = tape.leaf(a.copy())
    assert v3.id != v1.id


def test_tape_is_freed_without_the_cycle_collector():
    """Training drops each epoch's tape; its arrays must go at once, not at
    the next cyclic garbage collection."""
    gc.disable()
    try:
        tape = Tape()
        w = np.ones((2, 2))
        x = tape.leaf(w)
        out = mean_rows(tape, tape.gather_rows(tape.matmul(x, tape.leaf(w)), [0, 1, 1]))
        tape.backward(tape.matmul(out, tape.leaf(np.ones((2, 1)))))
        alive = weakref.ref(tape)
        del tape, x, out
        assert alive() is None
    finally:
        gc.enable()


def test_op_forward_values():
    tape = Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = tape.leaf([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(tape.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])
    assert np.array_equal(tape.add(a, b).data, [[6.0, 8.0], [10.0, 12.0]])
    assert np.array_equal(tape.hadamard(a, b).data, [[5.0, 12.0], [21.0, 32.0]])
    s = np.array([[2.0], [0.5]])
    assert np.array_equal(tape.scale_rows(a, s).data, [[2.0, 4.0], [1.5, 2.0]])
    assert np.array_equal(tape.concat_cols(a, b).data,
                          [[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    assert np.array_equal(tape.gather_rows(a, [1, 1, 0]).data,
                          [[3.0, 4.0], [3.0, 4.0], [1.0, 2.0]])
    assert np.array_equal(tape.spmm(operator([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]]), a).data,
                          [[6.0, 8.0], [1.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(tape.reshape(a, 1, 4).data, [[1.0, 2.0, 3.0, 4.0]])
    c = tape.leaf([[-1.0, 0.0], [2.0, -3.0]])
    assert np.array_equal(tape.relu(c).data, [[0.0, 0.0], [2.0, 0.0]])


def test_shape_errors():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tape.matmul(a, b)
    with pytest.raises(ShapeError):
        tape.add(a, b)
    with pytest.raises(ShapeError):
        tape.hadamard(a, b)
    with pytest.raises(ShapeError):
        tape.scale_rows(a, np.ones((3, 1)))
    for bad in (np.nan, np.inf):  # a non-finite scale makes its output row non-finite
        with pytest.raises(ValueError, match="finite"):
            tape.scale_rows(a, np.array([[1.0], [bad]]))
    with pytest.raises(ShapeError):
        tape.concat_cols(a, tape.leaf(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        tape.spmm(operator(np.ones((2, 3))), a)
    with pytest.raises(ShapeError):
        tape.reshape(a, 4, 2)
    with pytest.raises(ShapeError, match="1-d"):
        tape.gather_rows(a, [[0, 1]])
    with pytest.raises(ValueError, match="out of range"):
        tape.gather_rows(a, [0, 2])
    with pytest.raises(ShapeError, match="column"):
        tape.bce_with_logits(b, [0.0, 1.0])
    col = tape.leaf(np.zeros((2, 1)))
    with pytest.raises(ShapeError, match="targets"):
        tape.bce_with_logits(col, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="0 or 1"):
        tape.bce_with_logits(col, [0.0, 0.5])


def test_row_scatter_adds_in_row_order_like_add_at():
    """gather_rows' backward equals np.add.at bit for bit."""
    rng = np.random.default_rng(3)
    # power-of-two counts: the mean_rows below scales gradients exactly
    for rows, count, cols in ((1, 1, 3), (3, 4, 1), (7, 32, 4), (50, 2048, 16)):
        idx = rng.integers(0, rows, size=count)
        vals = rng.standard_normal((count, cols)) * 10.0 ** rng.integers(-8, 8, (count, 1))
        expected = np.zeros((rows, cols))
        np.add.at(expected, idx, vals)
        tape = Tape()
        src = tape.leaf(np.zeros((rows, cols)))
        weighted = tape.hadamard(tape.gather_rows(src, idx), tape.leaf(vals))
        loss = tape.matmul(mean_rows(tape, weighted), tape.leaf(np.ones((cols, 1))))
        assert np.array_equal(tape.backward(loss)[src.id] * count, expected)
    # the loss's shape (6,080 pairs of an 81-wide Z) and the GCN's (400 x 32);
    # summed with ones, so each gathered row's gradient is its vals row exactly
    for rows, count, cols in ((400, 6080, 81), (400, 400, 32)):
        idx = rng.integers(0, rows, size=count)
        vals = rng.standard_normal((count, cols)) * 10.0 ** rng.integers(-8, 8, (count, 1))
        expected = np.zeros((rows, cols))
        np.add.at(expected, idx, vals)
        tape = Tape()
        src = tape.leaf(np.zeros((rows, cols)))
        weighted = tape.hadamard(tape.gather_rows(src, idx), tape.leaf(vals))
        total = tape.matmul(tape.leaf(np.ones((1, count))), weighted)
        loss = tape.matmul(total, tape.leaf(np.ones((cols, 1))))
        assert np.array_equal(tape.backward(loss)[src.id], expected)


def test_spmm_adds_each_row_in_its_listed_order():
    """A row listing its columns out of order, one of them twice, is the
    sequential sum in that order; a COO build would sort and merge them.
    The backward adds each input row's entries in S's row order too."""
    x = np.array([[1.0, 0.5], [1e16, 1e16], [-1e16, -1e16]])
    cols = np.array([1, 0, 2, 0])
    listed = csr_matrix((np.ones(4), cols, np.array([0, 4])), shape=(1, 3))
    expected = np.zeros(2)
    for c in cols:
        expected = expected + x[c]
    assert np.array_equal(expected, [1.0, 0.5])  # 1e16 + 1 rounds to 1e16
    tape = Tape()
    out = tape.spmm(listed, tape.leaf(x)).data
    assert np.array_equal(out, [expected])
    coo = csr_matrix((np.ones(4), (np.zeros(4, dtype=int), cols)), shape=(1, 3))
    assert not np.array_equal(tape.spmm(coo, tape.leaf(x)).data, out)
    # column 0 is listed twice in row 0, then once in row 1: in S's row order
    # its gradient is (1e16 - 1e16) + 1 = 1; adding row 1's entry earlier gives 0
    s = csr_matrix((np.array([1e16, 3.0, -1e16, 1.0]), np.array([0, 1, 0, 0]),
                    np.array([0, 3, 4])), shape=(2, 2))
    assert (1e16 + 1.0) + -1e16 == 0.0 and (-1e16 + 1.0) + 1e16 == 0.0
    src = tape.leaf(np.zeros((2, 1)))
    loss = tape.matmul(tape.leaf(np.ones((1, 2))), tape.spmm(s, src))
    assert np.array_equal(tape.backward(loss)[src.id], [[1.0], [3.0]])


def test_cross_tape_values_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t1.add(a, b)


def test_bce_known_values():
    tape = Tape()
    # logit 0 against either label costs ln 2
    v = tape.bce_with_logits(tape.leaf([[0.0]]), [1.0])
    assert v.data[0, 0] == pytest.approx(np.log(2.0), rel=1e-15)
    # strongly correct logits cost ~0, strongly wrong ones cost ~|logit|
    good = tape.bce_with_logits(tape.leaf([[50.0]]), [1.0])
    bad = tape.bce_with_logits(tape.leaf([[-50.0]]), [1.0])
    assert good.data[0, 0] < 1e-20
    assert bad.data[0, 0] == pytest.approx(50.0, rel=1e-12)


def test_bce_gradient_at_zero_logit():
    tape = Tape()
    logits = tape.leaf([[0.0]])
    loss = tape.bce_with_logits(logits, [1.0])
    table = tape.backward(loss)
    # d/dx [softplus(-x)] at 0 with target 1 is sigmoid(0) - 1 = -0.5
    assert table[logits.id][0, 0] == pytest.approx(-0.5, rel=1e-15)


def test_bce_is_finite_for_huge_logits():
    tape = Tape()
    big = tape.leaf([[1e3], [-1e3]])
    v = tape.bce_with_logits(big, [1.0, 1.0])
    assert np.isfinite(v.data[0, 0])
    assert v.data[0, 0] == pytest.approx(500.0, rel=1e-12)


def test_overflowing_op_records_and_the_loss_raises():
    """Op outputs are not scanned; an overflow is caught at the loss."""
    tape = Tape()
    big = tape.leaf(np.full((2, 2), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        logits = tape.matmul(big, tape.leaf(np.full((2, 1), 1e200)))
        assert np.all(np.isinf(logits.data))
        with pytest.raises(ValueError, match="finite"):
            tape.bce_with_logits(logits, [1.0, 0.0])


def test_reused_input_accumulates_gradient():
    # f(x) = sum(x * x) => grad 2x, checked at x where the value is 3
    tape = Tape()
    x = tape.leaf([[3.0]])
    y = tape.hadamard(x, x)
    loss = y  # already 1x1
    table = tape.backward(loss)
    assert table[x.id][0, 0] == pytest.approx(6.0, rel=1e-15)


def test_unused_leaf_gets_exact_zero_gradient():
    tape = Tape()
    x = tape.leaf([[2.0]])
    unused = tape.leaf([[7.0, 1.0]])
    loss = tape.hadamard(x, x)
    late = tape.leaf([[5.0]])  # recorded after the terminal
    table = tape.backward(loss)
    assert sorted(table) == [x.id, unused.id, late.id]  # leaves only
    assert np.array_equal(table[unused.id], np.zeros((1, 2)))
    assert np.array_equal(table[late.id], np.zeros((1, 1)))


def test_backward_drops_each_inner_gradient_once_passed_on():
    """A 20-op chain over 10,000 x 16 rows: inner gradients are 1.28 MB each."""
    rng = np.random.default_rng(0)
    tape = Tape()
    x = tape.leaf(rng.standard_normal((10_000, 16)))
    v = x
    for _ in range(10):
        v = tape.relu(tape.scale_rows(v, rng.uniform(0.5, 1.5, size=(10_000, 1))))
    loss = tape.matmul(mean_rows(tape, v), tape.leaf(np.ones((16, 1))))
    tracemalloc.start()
    try:
        table = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[x.id].shape == (10_000, 16)
    # the leaf's gradient plus at most a few inner ones at a time
    assert peak < 8 * 2 ** 20, peak


def test_forward_keeps_only_what_a_backward_reads():
    """A 20-op chain over 10,000 x 16 rows: each output is 1.28 MB, and no
    backward reads a ``scale_rows`` input, so only the last one stays."""
    rng = np.random.default_rng(1)
    scales = [rng.uniform(0.5, 1.5, size=(10_000, 1)) for _ in range(20)]
    tracemalloc.start()
    try:
        tape = Tape()
        x = tape.leaf(rng.standard_normal((10_000, 16)))
        v = x
        for s in scales:
            v = tape.scale_rows(v, s)
        loss = tape.matmul(mean_rows(tape, v), tape.leaf(np.ones((16, 1))))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * 2 ** 20, held
    ref = np.full((10_000, 16), 1.0 / 10_000)
    for s in reversed(scales):
        ref = ref * s
    assert np.array_equal(tape.backward(loss)[x.id], ref)


def test_relu_gradient_masks_by_the_input_sign():
    a = np.array([[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, -2.0]])
    g = np.linspace(0.25, 1.75, a.shape[1]).reshape(-1, 1)
    tape = Tape()
    x = tape.leaf(a)
    table = tape.backward(tape.matmul(tape.relu(x), tape.leaf(g)))
    assert table[x.id].tobytes() == (g.T * (a > 0.0)).tobytes()


def _loss_of_every_op(keep: list):
    """A loss through every tape op; ``keep`` receives each intermediate Value."""
    rng = np.random.default_rng(5)
    tape = Tape()
    a = tape.leaf(rng.standard_normal((4, 3)))
    b = tape.leaf(rng.standard_normal((3, 3)))
    steps = [tape.matmul(a, b)]
    steps.append(tape.relu(steps[-1]))
    steps.append(tape.hadamard(steps[-1], a))
    steps.append(tape.add(steps[-1], steps[0]))
    steps.append(tape.scale_rows(steps[-1], rng.uniform(0.5, 1.5, size=(4, 1))))
    steps.append(tape.gather_rows(steps[-1], [3, 0, 0, 2, 1]))
    steps.append(tape.spmm(operator(rng.standard_normal((2, 5))), steps[-1]))
    steps.append(tape.concat_cols(steps[-1], steps[-1]))
    steps.append(tape.reshape(steps[-1], 12, 1))
    keep.extend(steps)
    return tape.bce_with_logits(steps[-1], np.arange(12) % 2)


def test_backward_after_every_intermediate_value_is_dropped():
    held = []
    loss = _loss_of_every_op(held)
    t_held = loss.tape.backward(loss)
    loss = _loss_of_every_op([])
    gc.collect()
    t_dropped = loss.tape.backward(loss)
    assert sorted(t_dropped) == sorted(t_held)
    for k in t_held:
        assert np.array_equal(t_dropped[k], t_held[k])


def test_backward_requires_scalar_terminal():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        tape.backward(x)


def test_backward_twice_gives_identical_tables():
    tape = Tape()
    x = tape.leaf(np.arange(6.0).reshape(2, 3) + 1.0)
    w = tape.leaf(np.ones((3, 1)))
    out = mean_rows(tape, tape.relu(tape.matmul(x, w)))
    t1 = tape.backward(out)
    t2 = tape.backward(out)
    for k in t1:
        assert np.array_equal(t1[k], t2[k])


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols))


def test_finite_difference_every_op():
    """FD-checks each differentiable op on several random instances."""
    rng = np.random.default_rng(42)
    checked = 0

    def check(build, *xs):
        nonlocal checked
        tape = Tape()
        leaves = [tape.leaf(x) for x in xs]
        out = build(tape, *leaves)
        # reduce to a scalar with a fixed weighting so FD sees every entry
        wvec = np.linspace(0.5, 1.5, out.shape[1]).reshape(-1, 1)
        total = mean_rows(tape, tape.matmul(out, tape.leaf(wvec)))
        table = tape.backward(total)
        for i, x in enumerate(xs):
            def f(xv, i=i):
                t2 = Tape()
                lvs = [t2.leaf(xv if j == i else xs[j]) for j in range(len(xs))]
                o = build(t2, *lvs)
                tt = mean_rows(t2, t2.matmul(o, t2.leaf(wvec)))
                return float(tt.data[0, 0])
            fd = numeric_grad(f, x)
            assert max_rel_err(fd, table[leaves[i].id]) < 1e-4
        checked += 1

    for _ in range(3):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        c = _random_matrix(rng, 3, 4)
        s = rng.uniform(0.2, 2.0, size=(3, 1))
        check(lambda t, x, y: t.matmul(x, y), a, b)
        check(lambda t, x, y: t.add(x, y), a, c)
        check(lambda t, x, y: t.hadamard(x, y), a, c)
        check(lambda t, x: t.scale_rows(x, s), a)
        check(lambda t, x, y: t.concat_cols(x, y), a, c)
        check(lambda t, x: t.gather_rows(x, np.array([2, 0, 0, 1])), a)
        sparse = operator(_random_matrix(rng, 5, 3) * (rng.random((5, 3)) < 0.5))
        check(lambda t, x: t.spmm(sparse, x), a)
        check(lambda t, x: t.reshape(x, 6, 2), a)
        # keep relu away from the kink so FD is trustworthy
        check(lambda t, x: t.relu(x), a + np.sign(a) * 0.3)

    for _ in range(3):
        logits = _random_matrix(rng, 5, 1)
        targets = rng.integers(0, 2, size=5).astype(np.float64)
        tape = Tape()
        lf = tape.leaf(logits)
        out = tape.bce_with_logits(lf, targets)
        table = tape.backward(out)

        def f(xv):
            t2 = Tape()
            return float(t2.bce_with_logits(t2.leaf(xv), targets).data[0, 0])

        fd = numeric_grad(f, logits)
        assert max_rel_err(fd, table[lf.id]) < 1e-4
        checked += 1

    assert checked >= 30


def test_adam_zero_gradient_keeps_params():
    params = [np.ones((2, 2))]
    grads = [np.zeros((2, 2))]
    new, state = adam_step(params, grads, None, lr=0.1)
    assert np.array_equal(new[0], params[0])
    assert state.step == 1


def test_adam_first_step_magnitude_and_sign():
    # with bias correction the first step is lr * g / (|g| + ~0)
    params = [np.array([[1.0, -2.0]])]
    grads = [np.array([[0.3, -0.7]])]
    new, _ = adam_step(params, grads, None, lr=0.05)
    step = new[0] - params[0]
    assert step[0, 0] == pytest.approx(-0.05, rel=1e-6)
    assert step[0, 1] == pytest.approx(0.05, rel=1e-6)


def test_adam_against_scalar_recurrence_oracle():
    """Optimize (w-3)^2/2; compare to an independent scalar recurrence."""
    lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
    w = np.array([[0.0]])
    params = [w]
    state = None
    # oracle state
    ow, om, ov = 0.0, 0.0, 0.0
    for t in range(1, 401):
        g = params[0][0, 0] - 3.0
        params, state = adam_step(params, [np.array([[g]])], state,
                                  lr=lr, beta1=b1, beta2=b2, eps=eps)
        og = ow - 3.0
        om = b1 * om + (1 - b1) * og
        ov = b2 * ov + (1 - b2) * og * og
        mhat = om / (1 - b1 ** t)
        vhat = ov / (1 - b2 ** t)
        ow = ow - lr * mhat / (np.sqrt(vhat) + eps)
        assert params[0][0, 0] == pytest.approx(ow, abs=1e-12)
    assert abs(params[0][0, 0] - 3.0) < 0.05


def test_adam_state_shapes_validated():
    params = [np.ones((2, 2))]
    with pytest.raises(ShapeError):
        adam_step(params, [np.ones((2, 3))], None)
    state = AdamState.fresh(params)
    bad = AdamState(step=1, m=(np.zeros((1, 1)),), v=(np.zeros((1, 1)),))
    with pytest.raises(ShapeError):
        adam_step(params, [np.ones((2, 2))], bad)
    with pytest.raises(ShapeError, match="params vs"):
        adam_step(params, [np.ones((2, 2))] * 2, None)
    with pytest.raises(ShapeError, match="state tracks"):
        adam_step(params, [np.ones((2, 2))], AdamState.fresh(params * 2))


def test_adam_rejects_non_finite_gradients():
    params = [np.ones((1, 2)), np.ones((2, 1))]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            adam_step(params, [np.zeros((1, 2)), np.array([[0.5], [bad]])], None)
