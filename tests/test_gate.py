import numpy as np
import pytest

from divcontrol import model
from divcontrol import tensor as T
from divcontrol import training
from divcontrol.config import RunConfig
from divcontrol.errors import ContractError, InvalidInputError
from divcontrol.gradcheck import finite_diff_check, micro_config
from divcontrol.model import (
    GateState,
    embed_instruction,
    record_usage,
    route,
    similarity_matrix,
    topk_select,
    update_biases,
)
from divcontrol.rng import fresh
from divcontrol.tensor import Tensor

SEED = 11


def make_gate(n_t=8, k=3, embed_dim=16, seed=SEED, rate=1e-3):
    return GateState(RunConfig(embed_dim=embed_dim, n_tailor=n_t, top_k=k, seed=seed,
                               gate_bias_rate=rate), fresh)


def embed(text):
    return embed_instruction(text, SEED, 16)


def test_embed_deterministic():
    a = embed("sobel edge map")
    b = embed("sobel edge map")
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_embed_normalizes_case_and_whitespace():
    a = embed("depth map")
    b = embed("depth  MAP")
    assert np.array_equal(a, b)


def test_embed_rejects_empty():
    with pytest.raises(InvalidInputError):
        embed_instruction("   ", SEED, 64)


def test_shared_token_raises_similarity():
    canny = embed("canny edges")
    lineart = embed("lineart edges")  # shares one token with canny
    disjoint_a = embed("depth shading")
    disjoint_b = embed("color palette")
    # the embeddings are unit-norm, so their dot product is their cosine
    shared = np.dot(canny, lineart)
    disjoint = np.dot(disjoint_a, disjoint_b)
    assert shared > disjoint


def test_route_uniform_at_zero_init():
    gate = make_gate(n_t=8)
    e = embed("anything at all")
    alpha = route(gate, e)
    assert np.allclose(alpha.data, 1.0 / 8.0, atol=1e-15)
    T.clear_tape()


def test_route_sums_to_one_and_is_deterministic():
    gate = make_gate()
    gate.w2.data = np.random.default_rng(0).standard_normal(gate.w2.shape)
    with T.no_grad():
        for text in ("sobel edge map", "soft box blur", "checkerboard mask"):
            e = embed(text)
            a1 = route(gate, e).data
            a2 = route(gate, e).data
            assert abs(a1.sum() - 1.0) < 1e-12
            assert np.array_equal(a1, a2)


def test_topk_basic_selection():
    gate = make_gate(n_t=4, k=2)
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    g, active = topk_select(Tensor(alpha), gate)
    assert set(active) == {0, 1}
    assert np.allclose(g.data, [0.4, 0.3, 0.0, 0.0])


def test_topk_bias_shifts_selection_not_values():
    gate = make_gate(n_t=4, k=2)
    gate.balance_bias = np.array([0.0, 0.0, 1.0, 0.0])
    g, active = topk_select(Tensor(np.array([0.4, 0.3, 0.2, 0.1])), gate)
    assert set(active) == {0, 2}
    assert np.allclose(g.data, [0.4, 0.0, 0.2, 0.0])


def test_topk_k_equals_n_keeps_everything():
    gate = make_gate(n_t=4, k=4)
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    g, active = topk_select(Tensor(alpha), gate)
    assert np.allclose(g.data, alpha)
    assert len(active) == 4


def test_gate_rejects_k_outside_zero_to_n_tailor():
    for n_t, k in ((0, 1), (4, 5), (4, -1)):
        with pytest.raises(ContractError):
            make_gate(n_t=n_t, k=k)
    assert make_gate(n_t=0, k=0).n_tailor == 0


def test_topk_tie_breaks_to_lower_index():
    gate = make_gate(n_t=4, k=2)
    _, active = topk_select(Tensor(np.array([0.25, 0.25, 0.25, 0.25])), gate)
    assert active == (0, 1)


def test_selection_invariant_to_constant_bias_shift():
    rng = np.random.default_rng(2)
    for _ in range(50):
        gate = make_gate(n_t=6, k=3)
        gate.balance_bias = rng.standard_normal(6)
        alpha = rng.dirichlet(np.ones(6))
        base_g, base_active = topk_select(Tensor(alpha), gate)
        gate.balance_bias = gate.balance_bias + rng.uniform(-5, 5)
        shifted_g, shifted_active = topk_select(Tensor(alpha), gate)
        assert base_active == shifted_active
        assert np.array_equal(base_g.data, shifted_g.data)


def test_coefficients_drawn_only_from_alpha():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gate = make_gate(n_t=5, k=2)
        gate.balance_bias = rng.standard_normal(5)
        alpha = rng.dirichlet(np.ones(5))
        g, _ = topk_select(Tensor(alpha), gate)
        for j, val in enumerate(g.data):
            assert val == 0.0 or val == alpha[j]


def test_usage_count_invariant():
    gate = make_gate(n_t=6, k=2)
    batches = 7
    for _ in range(batches):
        alpha = Tensor(np.random.default_rng(4).dirichlet(np.ones(6)))
        _, active = topk_select(alpha, gate)
        load = np.zeros(6, dtype=np.int64)
        record_usage(load, active, count=1)
        update_biases(gate, load)
    assert gate.usage_count.sum() == batches * 2


def test_update_biases_balanced_batch_is_noop():
    gate = make_gate(n_t=4, k=2)
    before = gate.balance_bias.copy()
    update_biases(gate, np.array([3, 3, 3, 3], dtype=np.int64))
    assert np.array_equal(gate.balance_bias, before)


def test_update_biases_pushes_against_skew():
    gate = make_gate(n_t=3, k=1, rate=1e-3)
    load = np.array([10, 0, 0], dtype=np.int64)
    update_biases(gate, load)
    assert gate.balance_bias[0] == pytest.approx(-1e-3)
    assert gate.balance_bias[1] == pytest.approx(+1e-3)
    assert gate.balance_bias[2] == pytest.approx(+1e-3)
    update_biases(gate, load)  # the load joins the running total each time
    assert np.array_equal(gate.usage_count, 2 * load)


def test_balancing_reduces_load_skew_over_stream():
    # two fixed embeddings in 90/10 proportion; compare cumulative max/mean
    # load ratio with and without balancing
    def run(rate):
        gate = make_gate(n_t=8, k=2, rate=rate)
        e_hot = embed("hot condition")
        e_cold = embed("cold condition")
        gen = np.random.default_rng(99)
        with T.no_grad():
            for _ in range(2000):
                e = e_hot if gen.uniform() < 0.9 else e_cold
                _, active = topk_select(route(gate, e), gate)
                load = np.zeros(8, dtype=np.int64)
                record_usage(load, active, count=1)
                update_biases(gate, load)
        load = gate.usage_count.astype(float)
        return load.max() / load.mean()

    assert run(1e-3) < run(0.0)


def test_routing_gradient_through_selected_coefficients():
    gate = make_gate(n_t=6, k=3, embed_dim=16)
    gate.w2.data = np.random.default_rng(5).standard_normal(gate.w2.shape) * 0.3
    e = embed("sobel edge map")
    with T.no_grad():
        _, frozen_active = topk_select(route(gate, e), gate)
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
    es = [embed(t) for t in ("sobel edge map", "laplacian edge map",
                             "soft box blur", "checkerboard mask")]
    sim = similarity_matrix(gate, es)
    assert np.allclose(np.diag(sim), 1.0, atol=1e-12)
    assert np.array_equal(sim, sim.T)
    with T.no_grad():
        alphas = [route(gate, e).data[0] for e in es]
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            if i != j:
                cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert abs(sim[i, j] - cos) <= 1e-12, (i, j)


def test_similarity_matrix_refuses_a_gate_without_tailors():
    # the 'neither' ablation arm's gate routes to empty rows, whose cosine
    # matrix would be all zeros, diagonal included
    gate = GateState(training.ablation_arms(micro_config(0))["neither"], fresh)
    es = [embed("sobel edge map"), embed("soft box blur")]
    with pytest.raises(ContractError, match="gate with tailors"):
        similarity_matrix(gate, es)


def test_balancing_neutral_when_rate_zero_and_bias_zero():
    gate = make_gate(n_t=5, k=2, rate=0.0)
    alpha = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    _, active = topk_select(Tensor(alpha), gate)
    assert set(active) == {1, 3}  # plain top-K on alpha
    update_biases(gate, np.array([5, 0, 0, 0, 0], dtype=np.int64))
    assert np.array_equal(gate.balance_bias, np.zeros(5))


def test_embed_table_is_drawn_once_and_read_only(monkeypatch):
    # an encoder_seed no other test uses, so no earlier draw is cached
    cfg = micro_config(0).replace(encoder_seed=90210)
    draws, draw = [], model.stream

    def spy(seed, *parts):
        if parts == ("embed-table",):
            draws.append((seed, parts))
        return draw(seed, *parts)

    monkeypatch.setattr(model, "stream", spy)
    first = training.build_diversion_bundle(cfg)
    second = training.build_diversion_bundle(cfg)
    training.zero_shot_route(first, "a novel swirl pattern")
    assert draws == [(90210, ("embed-table",))]
    assert all(np.array_equal(a, b) for a, b in zip(first.embeddings, second.embeddings))
    table = model._embed_table(90210, cfg.embed_dim)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def test_routing_rows_match_the_per_condition_path():
    # _routing_rows stacks one gate pass per distinct condition: each item's
    # row is that of routing its condition alone, the load counts each item
    # once on each tailor its condition selects, each condition records 7
    # tape nodes (then one gather, after one concat when there are several),
    # and routing writes no gate state
    bundle = training.build_diversion_bundle(micro_config(0))
    gate = bundle.gate
    gate.w2.data = np.random.default_rng(7).standard_normal(gate.w2.shape)
    gate.balance_bias = 0.1 * np.random.default_rng(8).standard_normal(gate.n_tailor)
    n_cond = len(bundle.embeddings)
    assert n_cond == 8
    alone = [topk_select(route(gate, e), gate) for e in bundle.embeddings]
    state = [gate.balance_bias.copy(), gate.usage_count.copy()]
    gen = np.random.default_rng(12)
    pinned = [([3, 0, 3, 5, 0], 7 * 3 + 2), ([2, 2], 8), ([1, 4], 16)]
    drawn = [(gen.integers(0, n_cond, gen.integers(1, 17)), None) for _ in range(50)]
    for cond_idx, nodes in pinned + drawn:
        cond_idx = np.asarray(cond_idx)
        distinct = np.unique(cond_idx).size
        T.clear_tape()
        rows, load = training._routing_rows(bundle, cond_idx)
        assert T.tape_size() == (nodes or 7 * distinct + 1 + (distinct > 1)), cond_idx
        for row, c in zip(rows.data, cond_idx, strict=True):
            assert np.array_equal(row, alone[c][0].data), (cond_idx, c)
        want = np.zeros(gate.n_tailor, dtype=np.int64)
        for c in cond_idx:
            want[list(alone[c][1])] += 1
        assert load.dtype == np.int64 and np.array_equal(load, want), cond_idx
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(state, (gate.balance_bias, gate.usage_count)))
    T.clear_tape()
