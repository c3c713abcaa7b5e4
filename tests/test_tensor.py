import weakref

import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol.errors import ContractError, InvalidInputError
from divcontrol.tensor import Tensor, backward, no_grad, softmax
from tape_oracles import matmul, transpose2


def test_softmax_uniform_on_zeros():
    y = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_softmax_analytic_ln2():
    y = softmax(Tensor([np.log(2.0), 0.0]))
    assert abs(y.data[0] - 2.0 / 3.0) < 1e-14
    assert abs(y.data[1] - 1.0 / 3.0) < 1e-14


def test_softmax_large_logits_match_arbitrary_precision():
    # oracle: mpmath evaluation of exp(x_i - max) / sum
    import mpmath

    logits = [1000.0, 0.0]
    m = max(logits)
    exps = [mpmath.e ** (x - m) for x in logits]
    total = sum(exps)
    expected = [float(e / total) for e in exps]
    y = softmax(Tensor(logits))
    assert np.isfinite(y.data).all()
    for got, want in zip(y.data, expected):
        assert abs(got - want) < 1e-300
    assert abs(y.data.sum() - 1.0) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        softmax(Tensor([np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        softmax(Tensor([np.inf, 0.0]))


def test_softmax_sum_and_permutation_equivariance_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        x = rng.standard_normal(n) * rng.uniform(0.1, 50)
        y = softmax(Tensor(x)).data
        assert abs(y.sum() - 1.0) < 1e-12
        assert (y > 0).all() and (y <= 1.0).all()
        perm = rng.permutation(n)
        yp = softmax(Tensor(x[perm])).data
        assert np.allclose(yp, y[perm], rtol=1e-14, atol=0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, 2.0)
    with pytest.raises(ContractError):
        backward(y)
    T.clear_tape()


def test_backward_sum_linear_matches_outer_product():
    # loss = sum(x @ W.T): grad(W)[i, j] = x[j] for every row i
    rng = np.random.default_rng(3)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((1, 3)))
    loss = T.sum_(T.linear(x, W))
    backward(loss)
    expected = np.tile(x.data, (4, 1))
    assert np.allclose(W.grad, expected, atol=1e-14)


def test_backward_constant_branch_gets_zero_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    loss = T.sum_(T.mul(a, a))  # b not used
    backward(loss)
    assert b.grad is None  # unreachable parameter: absent grad
    assert np.allclose(a.grad, 2.0)


def test_no_grad_blocks_recording():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(a, 3.0)
    assert not y.requires_grad
    assert T.tape_size() == 0


def test_grad_accumulates_across_reuse():
    a = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.sum_(T.add(T.mul(a, a), T.mul(a, 3.0)))
    backward(loss)
    assert np.allclose(a.grad, [2 * 2.0 + 3.0])


def test_broadcast_unbroadcast_grads():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    loss = T.sum_(T.add(a, b))
    backward(loss)
    assert a.grad.shape == (2, 3) and np.allclose(a.grad, 1.0)
    assert b.grad.shape == (3,) and np.allclose(b.grad, 2.0)


def test_gather_rows_scatter_adds():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    rows = T.gather_rows(table, np.array([1, 1, 3]))
    backward(T.sum_(rows))
    expected = np.array([[0, 0], [2, 2], [0, 0], [1, 1]], dtype=float)
    assert np.array_equal(table.grad, expected)


def test_backward_gives_each_tensor_its_own_grad_buffer():
    # add hands the same upstream array to both inputs and concat views of
    # it; the optimizer and the mask pass write gradients in place
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = Tensor(np.ones((1, 3)), requires_grad=True)
    y = T.mul(T.add(a, b), 2.0)
    backward(T.sum_(T.concat([y, c])))
    grads = [a.grad, b.grad, c.grad]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


def _closure_arrays(f):
    """The arrays function ``f`` closes over, through nested functions."""
    found = []
    for cell in f.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found += _closure_arrays(value)
    return found


def test_tape_holds_only_the_arrays_its_vjps_read():
    # a node holds leaves or gradient slots, never an intermediate tensor: a
    # residual sum feeding layer_norm is freed when the caller drops it, the
    # input of a linear whose weight needs a gradient lives until backward,
    # and backward frees every array the tape held
    rng = np.random.default_rng(5)
    x, w = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3, 4), (4, 4)))
    gain, bias = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
    leaves = [x, w, gain, bias]
    T.clear_tape()
    s = T.add(x, T.mul(x, 2.0))
    h = T.layer_norm(s, gain, bias)
    loss = T.sum_(T.linear(h, w))
    s_data, h_data = weakref.ref(s.data), weakref.ref(h.data)
    held = [weakref.ref(a) for _, _, vjp in T._TAPE.nodes for a in _closure_arrays(vjp)
            if not any(a is t.data for t in leaves)]
    for _, inputs, _ in T._TAPE.nodes:
        assert all(t is None or t in leaves or isinstance(t, T._Slot) for t in inputs)
    del s, h
    assert s_data() is None
    assert h_data() is not None
    backward(loss)
    assert h_data() is None
    assert len(held) == 4  # the constant 2.0, xhat, inv and h's data
    assert all(r() is None for r in held)


def test_tape_freed_after_backward():
    a = Tensor(np.ones(4), requires_grad=True)
    backward(T.sum_(T.mul(a, a)))
    assert T.tape_size() == 0


def test_gelu_argument_is_bit_identical_to_power_form():
    # gelu sidesteps numpy's slow power path for negative bases, and the
    # loss trajectory depends on every bit of x ** 3 all the same
    rng = np.random.default_rng(6)
    special = rng.standard_normal((7, 9))
    for start, value in enumerate((0.0, -0.0, np.nan, -np.inf, np.inf)):
        special.flat[start::6] = value
    cases = [rng.standard_normal(200_000) * s for s in (1e-3, 0.5, 1.0, 3.0, 1e3)]
    act = rng.standard_normal((16, 16, 128))
    cases += [special, special.T, act[:, ::2], act[::-1, :, ::-3], np.asfortranarray(act),
              np.array(-1.5), np.array(0.7), np.array(-0.0), np.zeros(0), np.zeros((3, 0)),
              rng.standard_normal(50) * 1e-160, rng.standard_normal(50) * 1e120]
    with np.errstate(all="ignore"):
        for x in cases:
            ref = T._GELU_C0 * (x + T._GELU_C1 * x ** 3)
            got = T._gelu_arg_of(x)
            assert got.shape == x.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_gelu_argument_falls_back_to_power_where_the_neighbours_disagree(monkeypatch):
    # the argument at the two float64 neighbours of -|x|**3 brackets the one
    # at x ** 3; these bases are those whose bracket is open, so only the
    # power form can decide them
    x = -np.abs(np.random.default_rng(7).standard_normal(100_000))
    bits = np.copysign(np.abs(x) ** 3, x).view(np.int64)
    lo, hi = (T._gelu_arg((bits + d).view(np.float64), x) for d in (-1, 1))
    x = x[lo != hi]
    assert x.size > 100
    sizes = []
    gelu_arg = T._gelu_arg

    def counted(cube, x):
        sizes.append(np.size(x))
        return gelu_arg(cube, x)

    monkeypatch.setattr(T, "_gelu_arg", counted)
    ref = gelu_arg(x ** 3, x)
    assert np.array_equal(T._gelu_arg_of(x).view(np.int64), ref.view(np.int64))
    assert sizes[-1] == x.size  # power ran on every one of them


def _gelu_from(cube, x):
    return 0.5 * x * (1.0 + np.tanh(T._gelu_arg(cube, x)))


def test_gelu_cube_follows_the_tape_state_not_requires_grad():
    # taped passes keep the bits of x ** 3 the training references hold;
    # untaped ones take x * x * x, and a frozen input is still taped
    x = np.random.default_rng(8).standard_normal((64, 48)) * 2.0
    plain, power = _gelu_from(x * x * x, x), _gelu_from(x ** 3, x)
    assert not np.array_equal(plain, power)  # this input tells them apart
    with no_grad():
        for requires_grad in (True, False):
            got = T.gelu(Tensor(x, requires_grad=requires_grad)).data
            assert np.array_equal(got.view(np.int64), plain.view(np.int64))
    for requires_grad in (True, False):
        got = T.gelu(Tensor(x, requires_grad=requires_grad)).data
        assert np.array_equal(got.view(np.int64), power.view(np.int64))
    T.clear_tape()


def test_untaped_gelu_within_two_eps_of_the_power_form():
    # a sweep of activation-sized bases; the worst measured gap is 1.0 |x| eps
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1_000_000) * 10.0 ** rng.uniform(-3, 1.5, 1_000_000)
    with no_grad():
        plain = T.gelu(Tensor(x)).data
    power = T.gelu(Tensor(x)).data
    gap = np.abs(plain - power)
    assert np.count_nonzero(gap) > 0
    assert np.all(gap <= 2 * np.abs(x) * np.finfo(np.float64).eps)


def test_fused_primitives_record_one_tape_node():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    u, s, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
               for shape in ((5, 2), (2,), (4, 2)))
    c = Tensor(rng.standard_normal((2, 1, 2)), requires_grad=True)
    no_tailors = (np.zeros((5, 0)), np.zeros(0), np.zeros((4, 0)), np.zeros((2, 1, 0)))
    T.clear_tape()
    T.factorized_linear(x, u, s, v, *no_tailors)
    T.factorized_linear(x, u, s, v, u, s, v, c)
    T.attention(x, x, x, 0.5)
    assert T.tape_size() == 3
    T.clear_tape()


def unfused_attention(q, k, v, scale):
    """Reference: the node-by-node chain attention replaces."""
    scores = T.mul(matmul(q, transpose2(k)), scale)
    return matmul(softmax(scores), v)


def test_attention_is_bit_identical_to_softmax_composition():
    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
               for _ in range(3))
    w = rng.standard_normal((2, 5, 3))
    results = []
    for attend in (T.attention, unfused_attention):
        T.zero_grads([q, k, v])
        y = attend(q, k, v, 0.25)
        backward(T.sum_(T.mul(y, w)))
        results.append([y.data, q.grad, k.grad, v.grad])
    for fused, composed in zip(*results):
        assert np.array_equal(fused, composed)


def test_attention_rejects_non_finite_scores():
    q = np.ones((1, 2, 2))
    q[0, 1, 0] = np.inf
    with pytest.raises(InvalidInputError):
        T.attention(Tensor(q), Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 2, 2))), 1.0)
