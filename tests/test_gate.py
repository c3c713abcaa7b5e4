import numpy as np
import pytest

from divcontrol import tensor as T
from divcontrol.errors import InvalidInputError
from divcontrol.gate import (
    GateState,
    InstructionEncoder,
    gate_logits,
    record_usage,
    route,
    similarity_matrix,
    topk_select,
    update_biases,
)
from divcontrol.gradcheck import finite_diff_check

SEED = 11


def make_gate(n_t=8, k=3, embed_dim=16, seed=SEED, rate=1e-3):
    return GateState.init(embed_dim, n_t, k, seed, bias_update_rate=rate)


def test_embed_deterministic():
    a = InstructionEncoder(SEED, 16).encode("sobel edge map")
    b = InstructionEncoder(SEED, 16).encode("sobel edge map")
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_embed_normalizes_case_and_whitespace():
    a = InstructionEncoder(SEED, 16).encode("depth map")
    b = InstructionEncoder(SEED, 16).encode("depth  MAP")
    assert np.array_equal(a, b)


def test_embed_rejects_empty():
    with pytest.raises(InvalidInputError):
        InstructionEncoder(SEED, 64).encode("   ")


def test_shared_token_raises_similarity():
    enc = InstructionEncoder(SEED, 16)
    canny = enc.encode("canny edges")
    lineart = enc.encode("lineart edges")  # shares one token with canny
    disjoint_a = enc.encode("depth shading")
    disjoint_b = enc.encode("color palette")
    # the embeddings are unit-norm, so their dot product is their cosine
    shared = np.dot(canny, lineart)
    disjoint = np.dot(disjoint_a, disjoint_b)
    assert shared > disjoint


def test_route_uniform_at_zero_init():
    gate = make_gate(n_t=8)
    e = InstructionEncoder(SEED, 16).encode("anything at all")
    alpha = route(gate, e)
    assert np.allclose(alpha.data, 1.0 / 8.0, atol=1e-15)
    T.clear_tape()


def test_route_sums_to_one_and_is_deterministic():
    gate = make_gate()
    gate.w2.data = np.random.default_rng(0).standard_normal(gate.w2.shape)
    with T.no_grad():
        for text in ("sobel edge map", "soft box blur", "checkerboard mask"):
            e = InstructionEncoder(SEED, 16).encode(text)
            a1 = route(gate, e).data
            a2 = route(gate, e).data
            assert abs(a1.sum() - 1.0) < 1e-12
            assert np.array_equal(a1, a2)


def test_topk_basic_selection():
    gate = make_gate(n_t=4, k=2)
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    coeffs = topk_select(alpha, gate)
    assert set(coeffs.active_set) == {0, 1}
    assert np.allclose(coeffs.g.data, [0.4, 0.3, 0.0, 0.0])


def test_topk_bias_shifts_selection_not_values():
    gate = make_gate(n_t=4, k=2)
    gate.balance_bias = np.array([0.0, 0.0, 1.0, 0.0])
    coeffs = topk_select(np.array([0.4, 0.3, 0.2, 0.1]), gate)
    assert set(coeffs.active_set) == {0, 2}
    assert np.allclose(coeffs.g.data, [0.4, 0.0, 0.2, 0.0])


def test_topk_k_equals_n_keeps_everything():
    gate = make_gate(n_t=4, k=4)
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    coeffs = topk_select(alpha, gate)
    assert np.allclose(coeffs.g.data, alpha)
    assert len(coeffs.active_set) == 4


def test_topk_tie_breaks_to_lower_index():
    gate = make_gate(n_t=4, k=2)
    coeffs = topk_select(np.array([0.25, 0.25, 0.25, 0.25]), gate)
    assert coeffs.active_set == (0, 1)


def test_selection_invariant_to_constant_bias_shift():
    rng = np.random.default_rng(2)
    for _ in range(50):
        gate = make_gate(n_t=6, k=3)
        gate.balance_bias = rng.standard_normal(6)
        alpha = rng.dirichlet(np.ones(6))
        base = topk_select(alpha, gate)
        gate.balance_bias = gate.balance_bias + rng.uniform(-5, 5)
        shifted = topk_select(alpha, gate)
        assert base.active_set == shifted.active_set
        assert np.array_equal(base.g.data, shifted.g.data)


def test_coefficients_drawn_only_from_alpha():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gate = make_gate(n_t=5, k=2)
        gate.balance_bias = rng.standard_normal(5)
        alpha = rng.dirichlet(np.ones(5))
        g = topk_select(alpha, gate).g.data
        for j, val in enumerate(g):
            assert val == 0.0 or val == alpha[j]


def test_usage_count_invariant():
    gate = make_gate(n_t=6, k=2)
    batches = 7
    for _ in range(batches):
        coeffs = topk_select(np.random.default_rng(4).dirichlet(np.ones(6)), gate)
        record_usage(gate, coeffs.active_set)
        update_biases(gate)
    assert gate.usage_count.sum() == batches * 2


def test_update_biases_balanced_batch_is_noop():
    gate = make_gate(n_t=4, k=2)
    gate.batch_count = np.array([3, 3, 3, 3], dtype=np.int64)
    before = gate.balance_bias.copy()
    update_biases(gate)
    assert np.array_equal(gate.balance_bias, before)


def test_update_biases_pushes_against_skew():
    gate = make_gate(n_t=3, k=1, rate=1e-3)
    gate.batch_count = np.array([10, 0, 0], dtype=np.int64)
    update_biases(gate)
    assert gate.balance_bias[0] == pytest.approx(-1e-3)
    assert gate.balance_bias[1] == pytest.approx(+1e-3)
    assert gate.balance_bias[2] == pytest.approx(+1e-3)
    assert gate.batch_count.sum() == 0  # reset into running total
    assert gate.usage_count.sum() == 10


def test_balancing_reduces_load_skew_over_stream():
    # two fixed embeddings in 90/10 proportion; compare cumulative max/mean
    # load ratio with and without balancing
    def run(rate):
        gate = make_gate(n_t=8, k=2, rate=rate)
        enc = InstructionEncoder(SEED, 16)
        e_hot = enc.encode("hot condition")
        e_cold = enc.encode("cold condition")
        gen = np.random.default_rng(99)
        with T.no_grad():
            for _ in range(2000):
                e = e_hot if gen.uniform() < 0.9 else e_cold
                coeffs = topk_select(route(gate, e), gate)
                record_usage(gate, coeffs.active_set)
                update_biases(gate)
        load = gate.usage_count.astype(float)
        return load.max() / load.mean()

    assert run(1e-3) < run(0.0)


def test_routing_gradient_through_selected_coefficients():
    gate = make_gate(n_t=6, k=3, embed_dim=16)
    gate.w2.data = np.random.default_rng(5).standard_normal(gate.w2.shape) * 0.3
    e = InstructionEncoder(SEED, 16).encode("sobel edge map")
    with T.no_grad():
        frozen_active = topk_select(route(gate, e), gate).active_set
    # pin the selection, as a training step treats it as a constant
    mask = np.zeros(6)
    mask[list(frozen_active)] = 1.0
    v = np.random.default_rng(6).standard_normal(6)

    def f():
        return T.sum_(T.mul(T.mul(route(gate, e), mask), v))

    report = finite_diff_check(f, gate.tensors(), h=1e-6, tol=1e-5)
    assert report.passed, report.per_param


def test_similarity_matrix_properties():
    gate = make_gate(n_t=6, k=3)
    gate.w2.data = np.random.default_rng(9).standard_normal(gate.w2.shape)
    enc = InstructionEncoder(SEED, 16)
    es = [enc.encode(t) for t in ("sobel edge map", "laplacian edge map",
                                  "soft box blur", "checkerboard mask")]
    sim = similarity_matrix(gate, es)
    assert np.allclose(np.diag(sim), 1.0, atol=1e-12)
    assert np.array_equal(sim, sim.T)
    with T.no_grad():
        alphas = [route(gate, e).data for e in es]
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            if i != j:
                cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert abs(sim[i, j] - cos) <= 1e-12, (i, j)


def test_balancing_neutral_when_rate_zero_and_bias_zero():
    gate = make_gate(n_t=5, k=2, rate=0.0)
    alpha = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    coeffs = topk_select(alpha, gate)
    assert set(coeffs.active_set) == {1, 3}  # plain top-K on alpha
    gate.batch_count = np.array([5, 0, 0, 0, 0], dtype=np.int64)
    update_biases(gate)
    assert np.array_equal(gate.balance_bias, np.zeros(5))
