import inspect

import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol.errors import ContractError
from divcontrol.model import FactorizedWeight, masked_gradient_apply, svd_blocks
from divcontrol.tensor import Tensor, backward
from tape_oracles import matmul


def apply_factorized(x, fw, rows):
    """``x @ W~.T``, the one ``T.factorized_linear`` node a branch projection records."""
    return T.factorized_linear(x, fw.u_g, fw.s_g, fw.v_g, fw.u_t, fw.s_t, fw.v_t, rows)


def factorize(w, n_g, n_t):
    return FactorizedWeight(**{part: Tensor(a, requires_grad=True)
                               for part, a in svd_blocks(w, n_g, n_t).items()})


def brute_force_compose(fw, g):
    """Independent oracle: accumulate rank-1 terms one by one."""
    w = np.zeros((fw.u_g.shape[0], fw.v_g.shape[0]))
    for i in range(fw.s_g.size):
        w += fw.s_g.data[i] * np.outer(fw.u_g.data[:, i], fw.v_g.data[:, i])
    for j in range(fw.s_t.size):
        w += g[j] * fw.s_t.data[j] * np.outer(fw.u_t.data[:, j], fw.v_t.data[:, j])
    return w


def applied_weight(fw, g):
    """W~ as apply_factorized sees it: the identity's rows map to W~.T."""
    with T.no_grad():
        return apply_factorized(Tensor(np.eye(fw.v_g.shape[0])), fw, Tensor(g)).data.T


def columns(fw):
    """The (U, Sigma, V) of all components, learngenes first."""
    return (np.hstack([fw.u_g.data, fw.u_t.data]),
            np.concatenate([fw.s_g.data, fw.s_t.data]),
            np.hstack([fw.v_g.data, fw.v_t.data]))


def random_fw(rng, out_dim, in_dim, n_g, n_t):
    w = rng.standard_normal((out_dim, in_dim))
    return factorize(w, n_g, n_t), w


def test_record_fields_are_factorized_linear_arguments_in_order():
    # the branch projects with T.factorized_linear(h, *fw, rows), so fields
    # out of this order would swap two factors without any error
    x, *factors, c = inspect.signature(T.factorized_linear).parameters
    assert (x, c) == ("x", "c")
    assert FactorizedWeight._fields == tuple(factors)


def test_svd_diagonal_case():
    fw = factorize(np.diag([3.0, 2.0, 1.0]), 1, 2)
    u, s, v = columns(fw)
    assert np.allclose(fw.s_g.data, [3.0]) and np.allclose(fw.s_t.data, [2.0, 1.0])
    # identity up to column signs
    for mat in (u, v):
        assert np.allclose(np.abs(mat), np.eye(3), atol=1e-12)
    assert np.allclose(u * s @ v.T, np.diag([3.0, 2.0, 1.0]), atol=1e-14)


def test_svd_zero_matrix():
    fw = factorize(np.zeros((4, 3)), 2, 1)
    assert np.allclose(columns(fw)[1], 0.0)
    assert np.allclose(applied_weight(fw, np.ones(1)), 0.0)


def test_svd_reconstruction_bound():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 6))
    fw = factorize(w, 4, 2)
    err = np.linalg.norm(w - applied_weight(fw, np.ones(2))) / np.linalg.norm(w)
    assert err <= 1e-10


def test_svd_orthonormal_and_ordered_at_init():
    rng = np.random.default_rng(1)
    u, s, v = columns(factorize(rng.standard_normal((10, 7)), 3, 4))
    assert np.allclose(u.T @ u, np.eye(7), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(7), atol=1e-12)
    assert (np.diff(s) <= 1e-12).all() and (s >= 0).all()


def test_svd_truncation():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((6, 6))
    fw = factorize(w, 2, 1)
    assert fw.s_g.size == 2 and fw.s_t.size == 1
    _, s, _ = np.linalg.svd(w)
    expected_err = np.linalg.norm(s[3:]) / np.linalg.norm(w)
    got_err = np.linalg.norm(w - brute_force_compose(fw, np.ones(1))) / np.linalg.norm(w)
    assert got_err == pytest.approx(expected_err, rel=1e-10)


def test_partition_learngenes_take_top_sigma():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 6))
    fw = factorize(w, 2, 4)
    s = np.linalg.svd(w, compute_uv=False)
    assert np.allclose(fw.s_g.data, s[:2]) and np.allclose(fw.s_t.data, s[2:])
    assert fw.s_g.size == 2 and fw.s_t.size == 4


def test_partition_rejects_bad_split():
    for n_g, n_t in ((3, 2), (0, 0), (-1, 3), (3, -1)):
        with pytest.raises(ContractError):
            factorize(np.eye(4), n_g, n_t)
    with pytest.raises(ContractError):
        factorize(np.ones(4), 1, 0)
    with pytest.raises(ContractError):
        factorize(np.diag([1.0, np.nan]), 1, 0)


def test_compose_all_zero_coefficients_gives_learngene_only():
    rng = np.random.default_rng(4)
    fw, _ = random_fw(rng, 5, 5, 3, 2)
    w = applied_weight(fw, np.zeros(2))
    learngene_only = fw.u_g.data * fw.s_g.data @ fw.v_g.data.T
    assert np.allclose(w, learngene_only, atol=1e-15)


def test_compose_one_hot_adds_exactly_one_tailor():
    rng = np.random.default_rng(5)
    fw, _ = random_fw(rng, 6, 4, 2, 2)
    g = np.array([0.0, 1.0])
    w = applied_weight(fw, g)
    assert np.allclose(w, brute_force_compose(fw, g), atol=1e-12)


def test_compose_matches_brute_force_random():
    rng = np.random.default_rng(6)
    for _ in range(25):
        out_d, in_d = rng.integers(2, 9, size=2)
        r = min(out_d, in_d)
        n_g = int(rng.integers(0, r + 1))
        n_t = r - n_g
        fw, _ = random_fw(rng, out_d, in_d, n_g, n_t)
        k = int(rng.integers(0, n_t + 1))
        g = np.zeros(n_t)
        active = tuple(rng.choice(n_t, size=k, replace=False)) if k else ()
        for j in active:
            g[j] = rng.uniform(0, 1)
        w = applied_weight(fw, g)
        assert np.abs(w - brute_force_compose(fw, g)).max() < 1e-12


def test_reconstruct_equals_unit_coefficients():
    rng = np.random.default_rng(7)
    fw, w0 = random_fw(rng, 7, 5, 3, 2)
    full = applied_weight(fw, np.ones(2))
    assert np.allclose(full, brute_force_compose(fw, np.ones(2)), atol=1e-14)
    assert np.linalg.norm(full - w0) / np.linalg.norm(w0) <= 1e-10


def test_apply_factorized_matches_dense_twin():
    rng = np.random.default_rng(8)
    fw, _ = random_fw(rng, 6, 6, 3, 3)
    g = np.array([0.5, 0.0, 0.2])
    x = rng.standard_normal((2, 4, 6))
    dense = x @ brute_force_compose(fw, g).T
    with T.no_grad():
        fact = apply_factorized(Tensor(x), fw, Tensor(g)).data
    assert np.abs(dense - fact).max() < 1e-10


def unfused_apply(x, fw, rows):
    """Reference: the node-by-node chain factorized_linear replaces."""
    y = T.linear(T.mul(matmul(x, fw.v_g), fw.s_g), fw.u_g)
    t = T.mul(matmul(x, fw.v_t), T.mul(rows, fw.s_t))
    return T.add(y, T.linear(t, fw.u_t))


def test_apply_factorized_is_bit_identical_to_unfused_chain():
    # two projections read the same x, as q, k and v do, so the order in
    # which their gradients are summed into x.grad matters too
    rng = np.random.default_rng(16)
    fws = [random_fw(rng, 6, 5, 2, 3)[0] for _ in range(2)]
    x = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    rows = Tensor(np.array([[[0.5, 0.0, 0.2]], [[0.3, 0.0, 0.0]]]), requires_grad=True)
    leaves = [x, rows] + [t for fw in fws for t in fw]
    results = []
    for project in (apply_factorized, unfused_apply):
        T.zero_grads(leaves)
        h = T.mul(x, 1.5)
        y = T.mul(project(h, fws[0], rows), project(h, fws[1], rows))
        backward(T.sum_(T.tanh(y)))
        results.append([y.data] + [t.grad for t in leaves])
    for fused, unfused in zip(*results):
        assert np.array_equal(fused, unfused)


def test_inactive_tailor_gets_exact_zero_grads():
    rng = np.random.default_rng(9)
    fw, _ = random_fw(rng, 5, 5, 2, 3)
    alpha = Tensor(np.array([0.5, 0.3, 0.2]), requires_grad=True)
    mask = np.array([1.0, 0.0, 1.0])  # tailor 1 inactive
    x = Tensor(rng.standard_normal((3, 5)))
    y = apply_factorized(x, fw, T.mul(alpha, mask))
    backward(T.sum_(T.mul(y, y)))
    assert np.array_equal(fw.u_t.grad[:, 1], np.zeros(5))
    assert np.array_equal(fw.v_t.grad[:, 1], np.zeros(5))
    assert fw.s_t.grad[1] == 0.0
    assert alpha.grad[1] == 0.0  # selection blocks gate gradient too
    assert np.abs(fw.u_t.grad[:, 0]).max() > 0
    residual = masked_gradient_apply(fw, np.array([1, 0, 1]))
    assert residual == 0.0


def test_inactive_tailor_gets_exact_zero_grads_per_row():
    # the branch passes (B, 1, n_tailor) rows; a column that is zero in every
    # row must get exactly zero gradient, or the mask pass would have work
    rng = np.random.default_rng(15)
    fw, _ = random_fw(rng, 5, 5, 2, 3)
    rows = Tensor(np.array([[[0.5, 0.0, 0.2]], [[0.3, 0.0, 0.0]]]), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    y = apply_factorized(x, fw, rows)
    backward(T.sum_(T.mul(y, y)))
    for grad in (fw.u_t.grad[:, 1], fw.v_t.grad[:, 1], fw.s_t.grad[1:2]):
        assert np.array_equal(grad, np.zeros_like(grad))
    assert np.abs(fw.u_t.grad[:, 2]).max() > 0   # active in one row only
    assert np.abs(rows.grad).max() > 0
    assert masked_gradient_apply(fw, np.array([1, 0, 1])) == 0.0


def test_mask_pass_clears_only_the_columns_the_load_leaves_at_zero():
    rng = np.random.default_rng(16)
    fw, _ = random_fw(rng, 5, 5, 2, 3)
    for t in (fw.u_t, fw.s_t, fw.v_t):
        t.grad = rng.standard_normal(t.data.shape)
    kept = [t.grad[..., [0, 2]].copy() for t in (fw.u_t, fw.s_t, fw.v_t)]
    largest = max(np.abs(t.grad[..., 1]).max() for t in (fw.u_t, fw.s_t, fw.v_t))
    assert masked_gradient_apply(fw, np.array([3, 0, 1])) == largest
    for t, want in zip((fw.u_t, fw.s_t, fw.v_t), kept):
        assert not t.grad[..., 1].any()
        assert np.array_equal(t.grad[..., [0, 2]], want)


def test_active_coefficient_scales_sigma_gradient():
    # sigma gradient of an active tailor at g=0.5 is half the g=1.0 gradient
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 6))
    loss_grads = []
    for gval in (1.0, 0.5):
        fw, _ = random_fw(np.random.default_rng(11), 6, 6, 3, 3)
        y = apply_factorized(Tensor(x), fw, Tensor(np.array([gval, 0.0, 0.0])))
        backward(T.sum_(y))
        loss_grads.append(fw.s_t.grad[0])
    assert loss_grads[1] == pytest.approx(0.5 * loss_grads[0], rel=1e-12)


def test_learngene_grads_invariant_to_active_set():
    # fixed input, fixed downstream weighting: learngene gradient must not
    # depend on which tailors were active
    x = np.random.default_rng(12).standard_normal((4, 6))
    grads = []
    for g in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        fw, _ = random_fw(np.random.default_rng(13), 6, 6, 3, 3)
        y = apply_factorized(Tensor(x), fw, Tensor(np.array(g)))
        backward(T.sum_(y))
        grads.append((fw.u_g.grad.copy(), fw.s_g.grad.copy(), fw.v_g.grad.copy()))
    for a, b in zip(grads[0], grads[1]):
        assert np.allclose(a, b, atol=1e-12)


def test_training_moves_parameters_freely():
    # 100 plain gradient steps change the reconstruction (no projection back)
    from divcontrol.optim import AdamW

    rng = np.random.default_rng(14)
    fw, _ = random_fw(rng, 4, 4, 2, 2)
    init = brute_force_compose(fw, np.ones(2))
    target = rng.standard_normal((4, 4))
    params = fw._asdict()
    opt = AdamW(params, lr=1e-2, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    for _ in range(100):
        # the identity's image is W~.T, so this pulls W~ towards target.T
        w_t = apply_factorized(Tensor(np.eye(4)), fw, Tensor(np.ones(2)))
        diff = T.add(w_t, -target)
        backward(T.sum_(T.mul(diff, diff)))
        opt.step()
        opt.zero_grad()
    after = brute_force_compose(fw, np.ones(2))
    assert np.linalg.norm(after - init) > 1e-3
    # orthonormality deliberately NOT asserted here: it only holds at step 0
