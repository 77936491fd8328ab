"""Unit and gradient-oracle tests for the tensor/tape engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrf import autodiff as ad
from tests.gradcheck import max_rel_err, numeric_grad

rng = np.random.default_rng(12345)


def leaf(arr):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(leaf(np.eye(2)), leaf([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_small_product(self):
        out = ad.matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 2))))

    def test_gradient_matches_finite_differences(self):
        a = leaf(rng.standard_normal((3, 4)))
        b = leaf(rng.standard_normal((4, 2)))
        w = rng.standard_normal((3, 2))  # fixed weighting -> scalar loss

        def loss():
            return float((a.data @ b.data * w).sum())

        ad.backward(ad.sum_(ad.mul(ad.matmul(a, b), ad.Tensor(w))))
        assert max_rel_err(a.grad, numeric_grad(loss, a.data)) < 1e-6
        assert max_rel_err(b.grad, numeric_grad(loss, b.data)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(leaf([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = ad.softmax(leaf([1000.0, 1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_sum_and_gradient(self):
        x = leaf(rng.standard_normal(5))
        w = rng.standard_normal(5)
        out = ad.softmax(x, axis=0)
        assert abs(out.data.sum() - 1.0) < 1e-12

        def loss():
            e = np.exp(x.data - x.data.max())
            return float((e / e.sum() * w).sum())

        ad.backward(ad.sum_(ad.mul(out, ad.Tensor(w))))
        assert max_rel_err(x.grad, numeric_grad(loss, x.data)) < 1e-4

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            ad.softmax(leaf([1.0, 2.0]), axis=3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_distributions(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 7))
        y = ad.softmax(ad.Tensor(x), axis=1).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert ((y > 0) & (y < 1)).all()


class TestLayerNorm:
    def test_constant_input_is_zeroed(self):
        x = leaf(np.full((1, 4), 3.7))
        out = ad.layer_norm(x, leaf(np.ones(4)), leaf(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = ad.layer_norm(leaf([[1.0, 3.0]]), leaf(np.ones(2)), leaf(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_gradient_matches_finite_differences(self):
        x = leaf(rng.standard_normal((3, 6)))
        gain = leaf(rng.standard_normal(6))
        bias = leaf(rng.standard_normal(6))
        w = rng.standard_normal((3, 6))

        def loss():
            mu = x.data.mean(axis=-1, keepdims=True)
            var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
            xhat = (x.data - mu) / np.sqrt(var + 1e-6)
            return float(((xhat * gain.data + bias.data) * w).sum())

        ad.backward(ad.sum_(ad.mul(ad.layer_norm(x, gain, bias), ad.Tensor(w))))
        for t in (x, gain, bias):
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalized_statistics(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(5, 16))
        # pin each row's sample variance at 4 so the epsilon term stays
        # well below the 1e-6 tolerance (deviation is eps / var)
        x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True) * 2.0
        x += r.normal(size=(5, 1))
        out = ad.layer_norm(
            ad.Tensor(x), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16))
        ).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(ad.relu(leaf([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu_passes_nan_on(self):
        out = ad.relu(leaf([np.nan, -1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 2.0])

    def test_stack(self):
        out = ad.stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])
        out = ad.stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])], axis=-1)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_stack_then_slice_is_identity(self):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        stacked = ad.stack([ad.Tensor(a), ad.Tensor(b)], axis=-2)
        np.testing.assert_array_equal(stacked.data[:, 0], a)
        np.testing.assert_array_equal(stacked.data[:, 1], b)

    def test_embedding_lookup_gradient_hits_only_used_rows(self):
        table = leaf(rng.standard_normal((4, 3)))
        ids = np.array([1, 3, 1])
        w = rng.standard_normal((3, 3))

        def loss():
            return float((table.data[ids] * w).sum())

        ad.backward(ad.sum_(ad.mul(ad.embedding_lookup(table, ids), ad.Tensor(w))))
        assert max_rel_err(table.grad, numeric_grad(loss, table.data)) < 1e-6
        np.testing.assert_array_equal(table.grad[0], 0.0)
        np.testing.assert_array_equal(table.grad[2], 0.0)
        assert np.abs(table.grad[[1, 3]]).sum() > 0

    def test_embedding_lookup_rejects_bad_id(self):
        with pytest.raises(IndexError):
            ad.embedding_lookup(leaf(np.ones((4, 3))), [4])

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (ad.add, ((3, 4), (3, 4))),
            (ad.add, ((3, 4), (4,))),  # broadcast bias
            (ad.mul, ((3, 4), (3, 4))),
            (ad.mul, ((3, 4), (4,))),
            (ad.relu, ((3, 4),)),
            (ad.tanh, ((3, 4),)),
        ],
    )
    def test_gradients_match_finite_differences(self, op, shapes):
        args = [leaf(rng.standard_normal(s)) for s in shapes]
        w = rng.standard_normal((3, 4))

        def run():
            return op(*args)

        def loss():
            with ad.no_grad():
                return float((run().data * w).sum())

        ad.backward(ad.sum_(ad.mul(run(), ad.Tensor(w))))
        for t in args:
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-4

    def test_transpose_and_slice_gradients(self):
        x = leaf(rng.standard_normal((3, 5)))
        w = rng.standard_normal((2, 3))

        def loss():
            return float((x.data.T[1:3] * w).sum())

        ad.backward(ad.sum_(ad.mul(ad.transpose(x)[1:3], ad.Tensor(w))))
        assert max_rel_err(x.grad, numeric_grad(loss, x.data)) < 1e-6



def assert_grads_match(run, leaves, tol=1e-6):
    """Backward of sum(run() * w) against central differences, per leaf."""
    w = rng.standard_normal(run().shape)

    def loss():
        with ad.no_grad():
            return float((run().data * w).sum())

    ad.backward(ad.sum_(ad.mul(run(), ad.Tensor(w))))
    for t in leaves:
        assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < tol


class TestBatchedOps:
    @pytest.mark.parametrize("axis", [0, -2, -1])
    def test_stack_gradient(self, axis):
        parts = [leaf(rng.standard_normal((3, 4))) for _ in range(3)]
        assert_grads_match(lambda: ad.stack(parts, axis=axis), parts)

    def test_matmul_rows_by_weight(self):
        a = leaf(rng.standard_normal((2, 3, 4)))
        b = leaf(rng.standard_normal((4, 5)))
        out = ad.matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, atol=1e-14)
        assert_grads_match(lambda: ad.matmul(a, b), [a, b])

    def test_matmul_batched_by_batched(self):
        a = leaf(rng.standard_normal((2, 3, 4, 5)))
        b = leaf(rng.standard_normal((2, 3, 5, 2)))
        assert_grads_match(lambda: ad.matmul(a, b), [a, b])

    def test_matmul_rejects_unequal_batch_axes(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.matmul(leaf(np.ones((2, 3, 4))), leaf(np.ones((3, 4, 5))))
        with pytest.raises(ValueError, match="mismatch"):
            ad.matmul(leaf(np.ones((3, 4))), leaf(np.ones(4)))

    def test_transpose_with_axes(self):
        x = leaf(rng.standard_normal((2, 3, 4, 5)))
        out = ad.transpose(x, (0, 2, 3, 1))
        np.testing.assert_array_equal(out.data, x.data.transpose(0, 2, 3, 1))
        assert_grads_match(lambda: ad.transpose(x, (0, 2, 3, 1)), [x])
        with pytest.raises(ValueError):
            ad.transpose(x, (0, 1, 1, 2))

    def test_embedding_lookup_with_2d_ids(self):
        table = leaf(rng.standard_normal((5, 3)))
        ids = np.array([[1, 3, 0], [3, 4, 0]])
        assert ad.embedding_lookup(table, ids).shape == (2, 3, 3)
        assert_grads_match(lambda: ad.embedding_lookup(table, ids), [table])
        np.testing.assert_array_equal(table.grad[2], 0.0)

    def test_boolean_mask_selects_rows_in_row_major_order(self):
        x = leaf(rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, False], [True, False, False]])
        np.testing.assert_array_equal(x[mask].data, x.data.reshape(6, 4)[[0, 1, 3]])
        assert_grads_match(lambda: x[mask], [x])
        np.testing.assert_array_equal(x.grad[~mask], 0.0)

    def test_masked_dropout_draws_for_real_rows_only(self):
        x = leaf(rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, False], [True, False, False]])
        out = ad.dropout(x, 0.5, np.random.default_rng(7), mask)
        rows = ad.dropout(ad.Tensor(x.data[mask]), 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(out.data[mask], rows.data)
        np.testing.assert_array_equal(out.data[~mask], 0.0)
        assert_grads_match(lambda: ad.dropout(x, 0.5, np.random.default_rng(7), mask), [x])
        np.testing.assert_array_equal(x.grad[~mask], 0.0)
        assert np.abs(x.grad[mask]).sum() > 0

class TestCrossEntropy:
    def test_saturated_correct_prediction(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        loss = ad.cross_entropy(leaf(logits), [2])
        assert loss.item() < 1e-9

    def test_uniform_logits(self):
        loss = ad.cross_entropy(leaf(np.zeros((2, 4))), [1, 3])
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_matches_direct_probability_oracle(self):
        logits = rng.standard_normal((3, 5))
        targets = np.array([4, 0, 2])
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        expect = -np.log(p[np.arange(3), targets]).mean()
        got = ad.cross_entropy(leaf(logits), targets).item()
        assert abs(got - expect) < 1e-12

    def test_zero_rows_is_an_error(self):
        with pytest.raises(ValueError, match="no rows"):
            ad.cross_entropy(leaf(np.zeros((0, 3))), [])

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range_is_an_error(self, target):
        with pytest.raises(IndexError, match="out of range"):
            ad.cross_entropy(leaf(np.zeros((2, 3))), [0, target])

    def test_gradient(self):
        x = leaf(rng.standard_normal((4, 6)))
        targets = np.array([5, 0, 0, 3])

        def loss():
            e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(-np.log(p[np.arange(4), targets]).mean())

        ad.backward(ad.cross_entropy(x, targets))
        assert max_rel_err(x.grad, numeric_grad(loss, x.data)) < 1e-4


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = leaf([1.0, 2.0, 3.0])
        ad.backward(ad.sum_(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic_grad(self):
        x = leaf([1.0, 2.0])
        ad.backward(ad.sum_(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(leaf([1.0, 2.0]))

    @pytest.mark.parametrize(
        "make_loss,once",
        [
            (lambda x: ad.sum_(ad.mul(x, x)), [2.0, 4.0]),
            # softmax([1, 2]) minus the one-hot target 1
            (
                lambda x: ad.cross_entropy(ad.reshape(x, (1, 2)), [1]),
                [1.0 / (1.0 + np.e), -1.0 / (1.0 + np.e)],
            ),
        ],
        ids=["square", "cross_entropy"],
    )
    def test_repeated_backward_accumulates(self, make_loss, once):
        x = leaf([1.0, 2.0])
        loss = make_loss(x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * np.array(once), atol=1e-12)

    def test_reused_node_accumulates_once_per_path(self):
        x = leaf([3.0])
        y = ad.add(ad.mul(x, x), ad.mul(x, ad.Tensor([2.0])))
        ad.backward(ad.sum_(y))
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)

    def test_no_grad_suppresses_tape(self):
        x = leaf([1.0])
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._parents == ()

    def test_dropout_zero_rate_is_identity(self):
        x = leaf(rng.standard_normal(8))
        assert ad.dropout(x, 0.0, rng) is x

    def test_dropout_scales_kept_units(self):
        x = leaf(np.ones(1000))
        out = ad.dropout(x, 0.4, np.random.default_rng(0))
        kept = out.data != 0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.6, atol=1e-12)
        ad.backward(ad.sum_(out))
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, atol=1e-12)
        np.testing.assert_array_equal(x.grad[~kept], 0.0)


def unfused_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def unfused_residual_norm(x, sub, gain, bias, rate, rng, mask):
    return ad.layer_norm(ad.add(x, ad.dropout(sub, rate, rng, mask)), gain, bias)


def residual_args(mask_rows: bool = False):
    x, sub = (leaf(rng.standard_normal((2, 3, 6))) for _ in range(2))
    gain, bias = leaf(rng.standard_normal(6)), leaf(rng.standard_normal(6))
    mask = np.array([[True, True, False], [True, False, False]]) if mask_rows else None
    return x, sub, gain, bias, mask


class TestFusedOps:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear_gradient(self, shape):
        x = leaf(rng.standard_normal(shape))
        w, b = leaf(rng.standard_normal((4, 3))), leaf(rng.standard_normal(3))
        assert ad.linear(x, w, b).shape == shape[:-1] + (3,)
        assert_grads_match(lambda: ad.linear(x, w, b), [x, w, b])

    def test_linear_rejects_mismatched_shapes(self):
        x, w = leaf(np.ones((2, 4))), leaf(np.ones((4, 3)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(x, w, leaf(np.ones(4)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(leaf(np.ones((2, 3))), w, leaf(np.ones(3)))

    @pytest.mark.parametrize("rate,mask_rows", [(0.0, False), (0.4, False), (0.4, True)])
    def test_residual_layer_norm_gradient(self, rate, mask_rows):
        x, sub, gain, bias, mask = residual_args(mask_rows)
        keep = ad.dropout_keep(sub.shape, rate, np.random.default_rng(3), mask)
        assert (keep is None) == (rate == 0.0)
        assert_grads_match(
            lambda: ad.residual_layer_norm(x, sub, gain, bias, keep), [x, sub, gain, bias]
        )
        if mask_rows:
            np.testing.assert_array_equal(sub.grad[~mask], 0.0)

    def test_residual_layer_norm_rejects_mismatched_shapes(self):
        x, sub, gain, bias, _ = residual_args()
        with pytest.raises(ValueError, match="residual shape mismatch"):
            ad.residual_layer_norm(x, sub[:, :2], gain, bias)
        with pytest.raises(ValueError, match="affine shape"):
            ad.residual_layer_norm(x, sub, gain[:4], bias)

    @pytest.mark.parametrize("rate,mask_rows", [(0.0, False), (0.4, False), (0.4, True)])
    def test_fused_ops_match_their_unfused_chains(self, rate, mask_rows):
        """Values and gradients agree to 1e-12; the fused ops only store less."""
        x, sub, gain, bias, mask = residual_args(mask_rows)
        w, b = leaf(rng.standard_normal((6, 5))), leaf(rng.standard_normal(5))
        weight = ad.Tensor(rng.standard_normal((2, 3, 5)))
        leaves = [x, sub, gain, bias, w, b]

        def run(norm, lin):
            for t in leaves:
                t.grad = None
            out = lin(norm(x, sub, gain, bias, rate, np.random.default_rng(9), mask), w, b)
            ad.backward(ad.sum_(ad.mul(out, weight)))
            return [out.data] + [t.grad for t in leaves]

        def fused_norm(x, sub, gain, bias, rate, rng, mask):
            keep = ad.dropout_keep(sub.shape, rate, rng, mask)
            return ad.residual_layer_norm(x, sub, gain, bias, keep)

        fused = run(fused_norm, ad.linear)
        chain = run(unfused_residual_norm, unfused_linear)
        for got, want in zip(fused, chain):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_dropout_keep_draws_nothing_at_rate_zero(self):
        r = np.random.default_rng(4)
        assert ad.dropout_keep((3, 4), 0.0, r) is None
        assert r.random() == np.random.default_rng(4).random()


class TestParamStore:
    def test_iteration_is_lexicographic(self):
        store = ad.ParamStore()
        store.add("b.w", ad.Tensor(np.zeros(2)))
        store.add("a.w", ad.Tensor(np.zeros((2, 3))))
        assert store.names() == ["a.w", "b.w"]
        assert store.count_scalars() == 8

    def test_duplicate_name_rejected(self):
        store = ad.ParamStore()
        store.add("w", ad.Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            store.add("w", ad.Tensor(np.zeros(1)))

    def test_zero_grads(self):
        store = ad.ParamStore()
        t = store.add("w", ad.Tensor(np.ones(3)))
        ad.backward(ad.sum_(t))
        assert t.grad is not None
        store.zero_grads()
        assert t.grad is None
