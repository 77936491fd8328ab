"""Unit and gradient-oracle tests for the tensor/tape engine."""

import ast
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrf import autodiff as ad
from mlrf import training
from mlrf.model import positional_encoding
from tests.conftest import (
    add, attention, dense_residual_layer_norm, dropout, embedding_lookup, fusion_tail, linear,
    matmul, relu, reshape, residual_layer_norm, scale, slice_, softmax, stack, sum_, tanh,
    transpose,
)
from tests.gradcheck import max_rel_err, mul, numeric_grad

rng = np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def seeded_rng(request):
    """Reseed the module's generator from the test's node id, so a test
    draws the same inputs whichever tests ran before it."""
    global rng
    rng = np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


def leaf(arr):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = matmul(leaf(np.eye(2)), leaf([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_small_product(self):
        out = matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 2))))

    def test_gradient_matches_finite_differences(self):
        a = leaf(rng.standard_normal((3, 4)))
        b = leaf(rng.standard_normal((4, 2)))
        w = rng.standard_normal((3, 2))  # fixed weighting -> scalar loss

        def loss():
            return float((a.data @ b.data * w).sum())

        ad.backward(sum_(mul(matmul(a, b), ad.Tensor(w))))
        assert max_rel_err(a.grad, numeric_grad(loss, a.data)) < 1e-6
        assert max_rel_err(b.grad, numeric_grad(loss, b.data)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(leaf([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax(leaf([1000.0, 1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_sum_and_gradient(self):
        x = leaf(rng.standard_normal(5))
        w = rng.standard_normal(5)
        out = softmax(x, axis=0)
        assert abs(out.data.sum() - 1.0) < 1e-12

        def loss():
            e = np.exp(x.data - x.data.max())
            return float((e / e.sum() * w).sum())

        ad.backward(sum_(mul(out, ad.Tensor(w))))
        assert max_rel_err(x.grad, numeric_grad(loss, x.data)) < 1e-4

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            softmax(leaf([1.0, 2.0]), axis=3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_distributions(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 7))
        y = softmax(ad.Tensor(x), axis=1).data
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

        ad.backward(sum_(mul(ad.layer_norm(x, gain, bias), ad.Tensor(w))))
        for t in (x, gain, bias):
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [8, 16, 256, 300, 1024])
    def test_statistics_are_numpys_means_bit_for_bit(self, d, dtype):
        """The kernels divide sums by d, which is what ``mean`` does."""
        r = np.random.default_rng(d)
        x, g = (r.standard_normal((6, d)).astype(dtype) for _ in range(2))
        gain, bias = np.ones(d, dtype), np.zeros(d, dtype)
        _, xhat, inv = ad._norm_forward(x, gain, bias, 1e-6)
        want = x - x.mean(axis=-1, keepdims=True)
        want_inv = 1.0 / np.sqrt(np.square(want).mean(axis=-1, keepdims=True) + 1e-6)
        want *= want_inv
        np.testing.assert_array_equal(xhat, want)
        np.testing.assert_array_equal(inv, want_inv)
        dx = g - g.mean(axis=-1, keepdims=True)
        dx -= xhat * (g * xhat).mean(axis=-1, keepdims=True)
        dx *= inv
        np.testing.assert_array_equal(ad._norm_vjp(g, xhat, inv, gain)[0], dx)

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
    def test_stack(self):
        out = stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])
        out = stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])], axis=-1)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_stack_then_slice_is_identity(self):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        stacked = stack([ad.Tensor(a), ad.Tensor(b)], axis=-2)
        np.testing.assert_array_equal(stacked.data[:, 0], a)
        np.testing.assert_array_equal(stacked.data[:, 1], b)

    def test_embedding_lookup_gradient_hits_only_used_rows(self):
        table = leaf(rng.standard_normal((4, 3)))
        ids = np.array([1, 3, 1])
        w = rng.standard_normal((3, 3))

        def loss():
            return float((table.data[ids] * w).sum())

        ad.backward(sum_(mul(embedding_lookup(table, ids), ad.Tensor(w))))
        assert max_rel_err(table.grad, numeric_grad(loss, table.data)) < 1e-6
        np.testing.assert_array_equal(table.grad[0], 0.0)
        np.testing.assert_array_equal(table.grad[2], 0.0)
        assert np.abs(table.grad[[1, 3]]).sum() > 0

    def test_embedding_lookup_rejects_bad_id(self):
        with pytest.raises(IndexError):
            embedding_lookup(leaf(np.ones((4, 3))), [4])

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (add, ((3, 4), (3, 4))),
            (add, ((3, 4), (4,))),  # broadcast bias
            (mul, ((3, 4), (3, 4))),
            (mul, ((3, 4), (4,))),
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

        ad.backward(sum_(mul(run(), ad.Tensor(w))))
        for t in args:
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-4

    def test_transpose_and_slice_gradients(self):
        x = leaf(rng.standard_normal((3, 5)))
        w = rng.standard_normal((2, 3))

        def loss():
            return float((x.data.T[1:3] * w).sum())

        ad.backward(sum_(mul(slice_(transpose(x), slice(1, 3)), ad.Tensor(w))))
        assert max_rel_err(x.grad, numeric_grad(loss, x.data)) < 1e-6


class TestSlice:
    KEYS = [
        slice(1, 3),
        0,
        (slice(None), 1),
        Ellipsis,
        np.array([True, False, True]),
        [0, 0, 2],
        (slice(None), [1, 1, 0]),
    ]

    @pytest.mark.parametrize("key", [np.array([True, False] * 8), [0, 0, 2] * 4])
    def test_gather_holds_one_result(self, key):
        """A mask or an integer array already gives a new array; it is not
        copied again."""
        x = ad.Tensor(rng.standard_normal((16, 31, 4, 64)))  # 1 MB
        tracemalloc.start()
        try:
            out = slice_(x, key)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.nbytes > 500_000
        assert peak <= 1.1 * out.data.nbytes

    @pytest.mark.parametrize("key", KEYS)
    def test_result_never_aliases_the_input(self, key):
        x = ad.Tensor(rng.standard_normal((3, 4)))
        out = slice_(x, key)
        want = x.data[key].copy()
        assert not np.shares_memory(out.data, x.data)
        x.data[...] = 0.0
        np.testing.assert_array_equal(out.data, want)

    @pytest.mark.parametrize("key", KEYS)
    def test_gradient(self, key):
        """Rows that an integer array repeats sum their gradients."""
        x = leaf(rng.standard_normal((3, 4)))
        assert_grads_match(lambda: slice_(x, key), [x])



def assert_grads_match(run, leaves, tol=1e-6):
    """Backward of sum(run() * w) against central differences, per leaf."""
    w = rng.standard_normal(run().shape)

    def loss():
        with ad.no_grad():
            return float((run().data * w).sum())

    ad.backward(sum_(mul(run(), ad.Tensor(w))))
    for t in leaves:
        assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < tol


class TestBatchedOps:
    @pytest.mark.parametrize("axis", [0, -2, -1])
    def test_stack_gradient(self, axis):
        parts = [leaf(rng.standard_normal((3, 4))) for _ in range(3)]
        assert_grads_match(lambda: stack(parts, axis=axis), parts)

    def test_matmul_rows_by_weight(self):
        a = leaf(rng.standard_normal((2, 3, 4)))
        b = leaf(rng.standard_normal((4, 5)))
        out = matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, atol=1e-14)
        assert_grads_match(lambda: matmul(a, b), [a, b])

    def test_matmul_batched_by_batched(self):
        a = leaf(rng.standard_normal((2, 3, 4, 5)))
        b = leaf(rng.standard_normal((2, 3, 5, 2)))
        assert_grads_match(lambda: matmul(a, b), [a, b])

    def test_matmul_rejects_unequal_batch_axes(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(leaf(np.ones((2, 3, 4))), leaf(np.ones((3, 4, 5))))
        with pytest.raises(ValueError, match="mismatch"):
            matmul(leaf(np.ones((3, 4))), leaf(np.ones(4)))

    def test_transpose_with_axes(self):
        x = leaf(rng.standard_normal((2, 3, 4, 5)))
        out = transpose(x, (0, 2, 3, 1))
        np.testing.assert_array_equal(out.data, x.data.transpose(0, 2, 3, 1))
        assert_grads_match(lambda: transpose(x, (0, 2, 3, 1)), [x])
        with pytest.raises(ValueError):
            transpose(x, (0, 1, 1, 2))

    def test_embedding_lookup_with_2d_ids(self):
        table = leaf(rng.standard_normal((5, 3)))
        ids = np.array([[1, 3, 0], [3, 4, 0]])
        assert embedding_lookup(table, ids).shape == (2, 3, 3)
        assert_grads_match(lambda: embedding_lookup(table, ids), [table])
        np.testing.assert_array_equal(table.grad[2], 0.0)

    def test_boolean_mask_selects_rows_in_row_major_order(self):
        x = leaf(rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, False], [True, False, False]])
        np.testing.assert_array_equal(slice_(x, mask).data, x.data.reshape(6, 4)[[0, 1, 3]])
        assert_grads_match(lambda: slice_(x, mask), [x])
        np.testing.assert_array_equal(x.grad[~mask], 0.0)

    def test_masked_dropout_draws_for_real_rows_only(self):
        x = leaf(rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, False], [True, False, False]])
        out = dropout(x, 0.5, np.random.default_rng(7), mask)
        rows = dropout(ad.Tensor(x.data[mask]), 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(out.data[mask], rows.data)
        np.testing.assert_array_equal(out.data[~mask], 0.0)
        assert_grads_match(lambda: dropout(x, 0.5, np.random.default_rng(7), mask), [x])
        np.testing.assert_array_equal(x.grad[~mask], 0.0)
        assert np.abs(x.grad[mask]).sum() > 0

def identity_loss(logits, targets):
    """The fused loss on given logits: an identity projection, a zero bias."""
    logits = leaf(logits)
    v = logits.shape[1]
    return ad.cross_entropy(logits, leaf(np.eye(v)), leaf(np.zeros(v)), targets)


def token_accuracy(logits, targets):
    return float((logits.argmax(axis=1) == targets).mean())


class TestCrossEntropy:
    def test_saturated_correct_prediction(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        loss, correct = identity_loss(logits, [2])
        assert loss.item() < 1e-9 and correct == 1

    def test_uniform_logits(self):
        loss, _ = identity_loss(np.zeros((2, 4)), [1, 3])
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_matches_direct_probability_oracle(self):
        x = rng.standard_normal((3, 4))
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(5)
        targets = np.array([4, 0, 2])
        e = np.exp(x @ w + b)
        p = e / e.sum(axis=1, keepdims=True)
        expect = -np.log(p[np.arange(3), targets]).mean()
        got, _ = ad.cross_entropy(leaf(x), leaf(w), leaf(b), targets)
        assert abs(got.item() - expect) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accuracy_equals_token_accuracy_of_materialized_logits(self, seed):
        r = np.random.default_rng(seed)
        x, w = leaf(r.standard_normal((40, 6))), leaf(r.standard_normal((6, 5)))
        b = leaf(r.standard_normal(5))
        targets = r.integers(0, 5, size=40)
        x.data[:3] = 0.0  # all-tied rows: the argmax is id 0
        w.data[:, 1] = w.data[:, 0]  # ids 0 and 1 tie on every row
        b.data[1] = b.data[0]
        _, correct = ad.cross_entropy(x, w, b, targets)
        logits = linear(x, w, b).data
        assert correct / targets.size == token_accuracy(logits, targets)

    def test_zero_rows_is_an_error(self):
        with pytest.raises(ValueError, match="no rows"):
            identity_loss(np.zeros((0, 3)), [])

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range_is_an_error(self, target):
        with pytest.raises(IndexError, match="out of range"):
            identity_loss(np.zeros((2, 3)), [0, target])

    def test_shape_mismatch_is_an_error(self):
        x, w = leaf(np.zeros((2, 3))), leaf(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="cross_entropy shape mismatch"):
            ad.cross_entropy(x, w, leaf(np.zeros(5)), [0, 1])

    def test_gradient(self):
        x = leaf(rng.standard_normal((4, 3)))
        w, b = leaf(rng.standard_normal((3, 6))), leaf(rng.standard_normal(6))
        targets = np.array([5, 0, 0, 3])

        def loss():
            z = x.data @ w.data + b.data
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(-np.log(p[np.arange(4), targets]).mean())

        ad.backward(ad.cross_entropy(x, w, b, targets)[0])
        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(loss, t.data)) < 1e-4

    def test_matches_unfused_projection_and_loss(self):
        """The fused op gives the loss and grads of the projection followed by
        the loss on materialized logits, bit for bit."""
        x = leaf(rng.standard_normal((5, 4)))
        w, b = leaf(rng.standard_normal((4, 7))), leaf(rng.standard_normal(7))
        targets = np.array([6, 0, 3, 3, 1])
        fused, _ = ad.cross_entropy(x, w, b, targets)
        ad.backward(fused)
        grads = [t.grad for t in (x, w, b)]
        for t in (x, w, b):
            t.grad = None
        logits = linear(x, w, b)
        chain, _ = ad.cross_entropy(logits, leaf(np.eye(7)), leaf(np.zeros(7)), targets)
        assert fused.item() == chain.item()
        ad.backward(chain)
        for got, t in zip(grads, (x, w, b)):
            np.testing.assert_array_equal(got, t.grad)

    @pytest.mark.parametrize("seed,v", [
        *(pytest.param(seed, 9, id=str(seed)) for seed in (0, 1)),
        *(pytest.param(seed, ad.BLOCK_COLS + 9, id=f"{seed}-wide") for seed in (0, 1)),
    ])
    def test_matches_unfused_chain_over_row_blocks(self, seed, v):
        """Over several row blocks, the last one short, the loss, the count
        and the gradient of x match the projection followed by the loss on
        materialized logits to rounding; the weight gradients, summed block
        by block rather than in one GEMM, to 1e-13.  Over more than
        ``BLOCK_COLS`` classes an entry of a gradient sums many products of
        both signs, so the gradients match to 1e-12 (x) and 1e-13 (w, b) of
        their largest entry instead (single entries near zero cancel to
        fewer bits)."""
        r = np.random.default_rng(seed)
        n, d = 2 * ad.BLOCK_ROWS + 37, 6
        x = leaf(r.standard_normal((n, d)))
        w, b = leaf(r.standard_normal((d, v))), leaf(r.standard_normal(v))
        targets = r.integers(0, v, size=n)
        fused, hits = ad.cross_entropy(x, w, b, targets)
        ad.backward(fused)
        grads = [t.grad for t in (x, w, b)]
        for t in (x, w, b):
            t.grad = None
        logits = linear(x, w, b)
        chain, chain_hits = ad.cross_entropy(logits, leaf(np.eye(v)), leaf(np.zeros(v)), targets)
        ad.backward(chain)
        assert hits == chain_hits
        np.testing.assert_allclose(fused.item(), chain.item(), rtol=1e-12, atol=0)
        for got, t, tol in zip(grads, (x, w, b), (1e-12, 1e-13, 1e-13)):
            if v > ad.BLOCK_COLS:
                np.testing.assert_allclose(got, t.grad, rtol=0, atol=tol * np.abs(t.grad).max())
            else:
                np.testing.assert_allclose(got, t.grad, rtol=tol, atol=0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weight_gradient_over_column_blocks_matches_one_product(self, seed):
        """Over more than ``BLOCK_COLS`` classes, where each later row
        block adds its share into the weight gradient a column block at a
        time, the weight gradients match the unfused chain's to 1e-13 of
        their largest entry (single entries near zero cancel to fewer
        bits)."""
        r = np.random.default_rng(seed)
        n, d, v = 2 * ad.BLOCK_ROWS + 37, 6, ad.BLOCK_COLS + 9
        x = leaf(r.standard_normal((n, d)))
        w, b = leaf(r.standard_normal((d, v))), leaf(r.standard_normal(v))
        targets = r.integers(0, v, size=n)
        ad.backward(ad.cross_entropy(x, w, b, targets)[0])
        grads = [w.grad, b.grad]
        w.grad = b.grad = None
        logits = linear(x, w, b)
        ad.backward(ad.cross_entropy(logits, leaf(np.eye(v)), leaf(np.zeros(v)), targets)[0])
        for got, t in zip(grads, (w, b)):
            np.testing.assert_allclose(got, t.grad, rtol=0, atol=1e-13 * np.abs(t.grad).max())

    def test_no_gradient_is_allocated_under_no_grad(self):
        """Under ``no_grad`` the op allocates one row block of logits, numpy's
        ufunc buffer (broadcast in-place ops) and [rows]-sized vectors:
        neither the [n x d] nor the [d x V] gradient."""
        n, d, v = 3 * ad.BLOCK_ROWS + 5, 256, 48
        x, w = leaf(rng.standard_normal((n, d))), leaf(rng.standard_normal((d, v)))
        b = leaf(np.zeros(v))
        targets = rng.integers(0, v, size=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.no_grad():
                loss, _ = ad.cross_entropy(x, w, b, targets)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loss._vjp is None
        scratch = 8 * (ad.BLOCK_ROWS * v + np.getbufsize() + 8 * ad.BLOCK_ROWS)
        assert peak <= scratch
        # a block holds more than BLOCK_ROWS / 2 rows, so even the smaller
        # gradient, [d x V], would not fit beside it
        assert w.data.nbytes > scratch - 8 * (ad.BLOCK_ROWS * v // 2 + np.getbufsize())

    def test_forward_and_backward_peak_is_the_gradients_and_one_block(self):
        """Over several row blocks, forward plus backward allocate the
        gradients they return, one row block of logits, one [d x BLOCK_COLS]
        buffer (a block's share of some columns of the weight gradient),
        numpy's ufunc buffer and [rows]-sized vectors; never the whole
        [n x V] logits or a [d x V] share."""
        n, d, v = 3 * ad.BLOCK_ROWS + 5, 16, 2 * ad.BLOCK_COLS + 200
        x, w = leaf(rng.standard_normal((n, d))), leaf(rng.standard_normal((d, v)))
        b = leaf(np.zeros(v))
        targets = rng.integers(0, v, size=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(ad.cross_entropy(x, w, b, targets)[0])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(t.grad.nbytes for t in (x, w, b))
        scratch = 8 * (ad.BLOCK_ROWS * v + np.getbufsize() + 8 * ad.BLOCK_ROWS)
        assert peak <= returned + 8 * d * ad.BLOCK_COLS + scratch
        assert peak < 8 * n * v  # less than the logits alone


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = leaf([1.0, 2.0, 3.0])
        ad.backward(sum_(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic_grad(self):
        x = leaf([1.0, 2.0])
        ad.backward(sum_(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(leaf([1.0, 2.0]))

    @pytest.mark.parametrize(
        "make_loss,once",
        [
            (lambda x: sum_(mul(x, x)), [2.0, 4.0]),
            # softmax([1, 2]) minus the one-hot target 1
            (
                lambda x: ad.cross_entropy(
                    reshape(x, (1, 2)), ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)), [1]
                )[0],
                [1.0 / (1.0 + np.e), -1.0 / (1.0 + np.e)],
            ),
        ],
        ids=["square", "cross_entropy"],
    )
    def test_second_backward_raises_and_keeps_the_first_grads(self, make_loss, once):
        x = leaf([1.0, 2.0])
        loss = make_loss(x)
        ad.backward(loss)
        first = x.grad
        with pytest.raises(RuntimeError, match="backward already ran through this graph"):
            ad.backward(loss)
        assert x.grad is first
        np.testing.assert_allclose(x.grad, once, atol=1e-12)

    def test_backward_through_a_spent_node_changes_no_grad(self):
        x, w = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        y = mul(x, x)
        ad.backward(sum_(y))
        with pytest.raises(RuntimeError, match="backward already ran"):
            ad.backward(sum_(mul(w, y)))  # the reverse pass reaches w before y
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert w.grad is None

    def test_backward_frees_every_op_node_while_the_loss_is_held(self):
        x = leaf(rng.standard_normal((2, 3, 8)))
        w, b = leaf(rng.standard_normal((8, 8))), leaf(rng.standard_normal(8))
        gain, bias = leaf(np.ones(8)), leaf(np.zeros(8))
        h = linear(x, w, b)
        a = attention(h, h, h, 2, np.tril(np.ones((3, 3), dtype=bool))[None, None])
        keep = ad.dropout_keep((2, 3, 8), 0.3, rng)
        n = dense_residual_layer_norm(h, a, w, b, gain, bias, keep, 0.3)
        loss, _ = ad.cross_entropy(reshape(n, (6, 8)), w, b, [1, 2, 3, 4, 5, 6])
        del h, a, n, keep
        ops = [t for t in ad._toposort(loss) if t._vjp is not None]
        assert len(ops) == 5
        held = [weakref.ref(t.data) for t in ops if t is not loss]
        for t in ops:
            held += [weakref.ref(c.cell_contents) for c in t._vjp.__closure__
                     if isinstance(c.cell_contents, np.ndarray)]
        ad.backward(loss)
        for t in ops:
            assert t._parents == () and t._vjp.__closure__ is None
        del t, ops
        # a gradient array the loss formed goes on as w's grad, with the
        # other gradient of w added into it in place
        grads = {id(t.grad) for t in (x, w, b, gain, bias)}
        assert [r for r in held if r() is not None and id(r()) not in grads] == []
        assert any(r() is w.grad for r in held)
        assert loss.requires_grad and np.isfinite(loss.item())

    def test_sums_go_in_place_only_into_arrays_backward_alone_holds(self):
        """A later gradient is added in place into a node's first one when
        backward alone holds that array; an array a VJP gave two parents,
        and a view, are never written."""
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        a = ad._make(x.data.copy(), (x,), lambda g: (g,))
        b = ad._make(y.data.copy(), (y,), lambda g: (g,))
        made = {}

        def vjp(g):
            made["new"], made["shared"] = np.array([5.0, 6.0]), np.array([1.0, 1.0])
            made["base"] = np.array([[0.0, 0.0], [2.0, 3.0]])
            return made["new"], made["shared"], made["shared"], made["base"][1]

        ad.backward(ad._make(np.float64(0.0), (a, b, a, b), vjp))
        assert x.grad is made["new"]
        np.testing.assert_array_equal(x.grad, [6.0, 7.0])
        np.testing.assert_array_equal(y.grad, [3.0, 4.0])
        np.testing.assert_array_equal(made["shared"], [1.0, 1.0])
        np.testing.assert_array_equal(made["base"], [[0.0, 0.0], [2.0, 3.0]])
        assert not np.shares_memory(y.grad, made["shared"])

    def test_grads_accumulate_over_separate_graphs_sharing_leaves(self):
        x, c = leaf([1.0, 2.0]), ad.Tensor([5.0, 7.0])
        ad.backward(sum_(mul(x, x)))
        ad.backward(sum_(mul(x, c)))
        np.testing.assert_array_equal(x.grad, [7.0, 11.0])

    def test_leaf_keeps_a_new_vjp_array_and_copies_a_view(self):
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        made = {}

        def vjp(g):
            made["new"], made["base"] = np.array([5.0, 6.0]), np.array([[0.0, 0.0], [7.0, 8.0]])
            return made["new"], made["base"][1]

        ad.backward(ad._make(np.float64(0.0), (x, y), vjp))
        assert x.grad is made["new"]
        assert not np.shares_memory(y.grad, made["base"])
        np.testing.assert_array_equal(y.grad, [7.0, 8.0])

    def test_leaves_that_share_a_gradient_array_get_their_own(self):
        store = ad.ParamStore()
        a = store.add("a", ad.Tensor(np.ones((2, 3))))
        b = store.add("b", ad.Tensor(np.ones((2, 3))))
        w = rng.standard_normal((2, 3))
        ad.backward(sum_(mul(add(a, b), ad.Tensor(w))))
        assert not np.shares_memory(a.grad, b.grad)
        norm = training.grad_norm(store)
        training.clip_gradients(store, norm / 2, norm)
        np.testing.assert_array_equal(a.grad, w * 0.5)
        np.testing.assert_array_equal(b.grad, w * 0.5)

    def test_reused_node_accumulates_once_per_path(self):
        x = leaf([3.0])
        y = add(mul(x, x), mul(x, ad.Tensor([2.0])))
        ad.backward(sum_(y))
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)

    def test_no_grad_suppresses_tape(self):
        x = leaf([1.0])
        with ad.no_grad():
            y = mul(x, x)
        assert not y.requires_grad and y._parents == ()

    def test_dropout_zero_rate_is_identity(self):
        x = leaf(rng.standard_normal(8))
        assert dropout(x, 0.0, rng) is x

    def test_dropout_scales_kept_units(self):
        x = leaf(np.ones(1000))
        out = dropout(x, 0.4, np.random.default_rng(0))
        kept = out.data != 0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.6, atol=1e-12)
        ad.backward(sum_(out))
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, atol=1e-12)
        np.testing.assert_array_equal(x.grad[~kept], 0.0)


def closure_arrays(f):
    """The arrays the closure of ``f`` holds, through nested closures."""
    for cell in f.__closure__ or ():
        c = cell.cell_contents
        if isinstance(c, np.ndarray):
            yield c
        elif callable(c) and getattr(c, "__closure__", None):
            yield from closure_arrays(c)


def unfused_linear(x, w, b):
    return add(matmul(x, w), b)


def unfused_dense_residual_norm(x, h, w, b, gain, bias, rate, rng, mask):
    """The projection, dropout, add and norm chain ``dense_residual_layer_norm``
    fuses."""
    return ad.layer_norm(add(x, dropout(unfused_linear(h, w, b), rate, rng, mask)), gain, bias)


def residual_args(mask_rows: bool = False):
    """Leaves x [2 x 3 x 6], h [2 x 3 x 5], w [5 x 6], b, gain and bias, and
    a row mask (or None)."""
    x, h = leaf(rng.standard_normal((2, 3, 6))), leaf(rng.standard_normal((2, 3, 5)))
    w, b = leaf(rng.standard_normal((5, 6))), leaf(rng.standard_normal(6))
    gain, bias = leaf(rng.standard_normal(6)), leaf(rng.standard_normal(6))
    mask = np.array([[True, True, False], [True, False, False]]) if mask_rows else None
    return [x, h, w, b, gain, bias], mask


def attention_node_args(kind, d=8):
    """Leaves of an attention sublayer over a padded batch of 2 sentences of
    4 positions: x [2 x 4 x d], then its weights in the op's order, wq, bq,
    wk, bk, wv, bv, wo, bo, gain and bias; the key and value source (x, or a
    [2 x 5 x d] memory for ``cross``, which is then the last leaf), the
    boolean mask over the scores, and the real-token mask of x."""
    x = leaf(rng.standard_normal((2, 4, d)))
    dense = [leaf(rng.standard_normal(shape)) for _ in range(4) for shape in ((d, d), (d,))]
    gain, bias = leaf(rng.standard_normal(d)), leaf(rng.standard_normal(d))
    leaves = [x, *dense, gain, bias]
    tokens = np.array([[True] * 4, [True, True, True, False]])
    if kind == "cross":
        memory = leaf(rng.standard_normal((2, 5, d)))
        keys = np.array([[True] * 5, [True, True, False, False, False]])[:, None, None, :]
        return leaves + [memory], memory, keys, tokens
    return leaves, x, attention_mask(kind), tokens


def ffn_args(d_out=6):
    """Leaves x [2 x 3 x 6], w1 [6 x 5], b1, w2 [5 x d_out], b2, gain and bias
    of an FFN sublayer (d_out 6) or of a fusion tail, and the real-token mask
    of a padded batch."""
    x = leaf(rng.standard_normal((2, 3, 6)))
    w1, b1 = leaf(rng.standard_normal((6, 5))), leaf(rng.standard_normal(5))
    w2, b2 = leaf(rng.standard_normal((5, d_out))), leaf(rng.standard_normal(d_out))
    gain, bias = leaf(rng.standard_normal(d_out)), leaf(rng.standard_normal(d_out))
    mask = np.array([[True, True, False], [True, False, False]])
    return [x, w1, b1, w2, b2, gain, bias], mask


def unfused_layer_attention(layers, embed, w1, w2):
    """The reshape, add, tanh projection, energy, transpose, softmax,
    weighted sum and reshape chain that ``layer_attention`` fuses."""
    tagged = add(reshape(layers, layers.shape[:-1] + embed.shape), embed)
    if isinstance(w1, ad.Tensor):
        hidden = tanh(matmul(tagged, w1))
    else:
        hidden = stack(
            [tanh(matmul(slice_(tagged, (..., l, slice(None))), w)) for l, w in enumerate(w1)],
            axis=-2,
        )
    lead = tuple(range(len(layers.shape) - 1))
    energies = transpose(matmul(hidden, w2), lead + (len(lead) + 1, len(lead)))
    att = softmax(energies, axis=-1)
    hops = matmul(att, tagged)
    return reshape(hops, hops.shape[:-2] + (-1,)), att.data


def layer_attention_args(lead, n_hop, share_w1, n=3, d=4, d_a=6):
    """Leaves layers [*lead, n * d], embed [n, d], w1 (one or n) and w2."""
    layers, embed = leaf(rng.standard_normal(lead + (n * d,))), leaf(rng.standard_normal((n, d)))
    w1 = [leaf(rng.standard_normal((d, d_a))) for _ in range(1 if share_w1 else n)]
    return layers, embed, w1[0] if share_w1 else w1, leaf(rng.standard_normal((d_a, n_hop)))


def unfused_attention(q, k, v, n_heads, mask):
    """The view, matmul, scale, penalty and softmax chain ``attention`` fuses."""
    b, lq, d = q.shape
    lk, dh = k.shape[1], d // n_heads

    def heads(x, length, axes):
        return transpose(reshape(x, (b, length, n_heads, dh)), axes)

    scores = scale(
        matmul(heads(q, lq, (0, 2, 1, 3)), heads(k, lk, (0, 2, 3, 1))), 1.0 / np.sqrt(dh)
    )
    if mask is not None:
        scores = add(scores, ad.Tensor(np.where(mask, 0.0, -1e9)))
    out = matmul(softmax(scores, axis=-1), heads(v, lk, (0, 2, 1, 3)))
    return reshape(transpose(out, (0, 2, 1, 3)), (b, lq, d))


def attention_mask(kind):
    """Masks over a [2 x 1 x 4 x 4] score block."""
    if kind == "none":
        return None
    if kind == "key_padding":
        return np.array([[True] * 4, [True, True, False, False]])[:, None, None, :]
    if kind == "causal":
        return np.tril(np.ones((4, 4), bool))[None, None]
    mask = np.ones((2, 1, 4, 4), bool)
    mask[1, 0, 2] = False  # query 2 of sentence 1 may see no key
    return mask


def qkv(d=4):
    return [leaf(rng.standard_normal((2, 4, d))) for _ in range(3)]


class TestAttention:
    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("kind", ["none", "key_padding", "causal", "fully_masked_row"])
    def test_matches_unfused_chain_bit_for_bit(self, n_heads, kind):
        q, k, v = qkv()
        mask = attention_mask(kind)
        weight = ad.Tensor(rng.standard_normal((2, 4, 4)))
        runs = []
        for op in (attention, unfused_attention):
            for t in (q, k, v):
                t.grad = None
            out = op(q, k, v, n_heads, mask)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in (q, k, v)])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("kind", ["none", "key_padding", "causal"])
    def test_gradient(self, n_heads, kind):
        q, k, v = qkv()
        mask = attention_mask(kind)
        assert_grads_match(lambda: attention(q, k, v, n_heads, mask), [q, k, v])
        if kind == "key_padding":  # pad keys get no weight, so no gradient
            np.testing.assert_array_equal(k.grad[1, 2:], 0.0)
            np.testing.assert_array_equal(v.grad[1, 2:], 0.0)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_fully_masked_row_attends_as_if_unmasked(self, n_heads):
        """Every score of the row gets the same penalty, so its weights are
        the unmasked ones up to the penalty's rounding (ulp(1e9) ~ 1.2e-7)."""
        q, k, v = qkv()
        mask = attention_mask("fully_masked_row")
        weight = np.zeros((2, 4, 4))
        weight[1, 2] = rng.standard_normal(4)  # the loss reads the masked row only
        runs = []
        for m in (mask, None):
            for t in (q, k, v):
                t.grad = None
            out = attention(q, k, v, n_heads, m)
            ad.backward(sum_(mul(out, ad.Tensor(weight))))
            runs.append([out.data[1, 2]] + [t.grad for t in (q, k, v)])
        assert np.isfinite(runs[0][0]).all()
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_weights_are_distributions_over_allowed_keys(self):
        q, k, v = qkv()
        v.data[:] = 0.0
        v.data[..., 0] = 1.0  # every output's first unit sums its weights
        out = attention(q, k, v, 1, attention_mask("key_padding"))
        np.testing.assert_allclose(out.data[..., 0], 1.0, atol=1e-12)

    def test_rejects_bad_shapes(self):
        q, k, v = qkv()
        with pytest.raises(ValueError, match="attention shape mismatch"):
            attention(q, k, v, 3)
        with pytest.raises(ValueError, match="attention shape mismatch"):
            attention(q, k, leaf(v.data[:, :3]), 2)
        with pytest.raises(ValueError, match="does not broadcast"):
            attention(q, k, v, 2, np.ones((2, 1, 3, 4), bool))


class TestFusedOps:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear_gradient(self, shape):
        x = leaf(rng.standard_normal(shape))
        w, b = leaf(rng.standard_normal((4, 3))), leaf(rng.standard_normal(3))
        assert linear(x, w, b).shape == shape[:-1] + (3,)
        assert_grads_match(lambda: linear(x, w, b), [x, w, b])

    def test_linear_without_bias_gradient(self):
        x, w = leaf(rng.standard_normal((2, 3, 4))), leaf(rng.standard_normal((4, 5)))
        np.testing.assert_allclose(linear(x, w).data, x.data @ w.data, atol=1e-14)
        assert_grads_match(lambda: linear(x, w), [x, w])

    def test_linear_rejects_mismatched_shapes(self):
        x, w = leaf(np.ones((2, 4))), leaf(np.ones((4, 3)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            linear(x, w, leaf(np.ones(4)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            linear(leaf(np.ones((2, 3))), w, leaf(np.ones(3)))

    @pytest.mark.parametrize("rate,mask_rows", [(0.0, False), (0.4, False), (0.4, True)])
    def test_dense_residual_layer_norm_gradient(self, rate, mask_rows):
        leaves, mask = residual_args(mask_rows)
        keep = ad.dropout_keep(leaves[0].shape, rate, np.random.default_rng(3), mask)
        assert (keep is None) == (rate == 0.0)
        assert keep is None or keep.dtype == bool
        assert_grads_match(lambda: dense_residual_layer_norm(*leaves, keep, rate), leaves)
        if mask_rows:  # masked-out rows are dropped, so the projection gets no gradient there
            np.testing.assert_array_equal(leaves[1].grad[~mask], 0.0)

    def test_dense_residual_layer_norm_rejects_mismatched_shapes(self):
        (x, h, w, b, gain, bias), _ = residual_args()
        with pytest.raises(ValueError, match="dense residual shape mismatch"):
            dense_residual_layer_norm(leaf(x.data[:, :2]), h, w, b, gain, bias)
        with pytest.raises(ValueError, match="dense residual shape mismatch"):
            dense_residual_layer_norm(x, h, w, leaf(b.data[:4]), gain, bias)
        with pytest.raises(ValueError, match="affine shape"):
            dense_residual_layer_norm(x, h, w, b, leaf(gain.data[:4]), bias)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_ffn_node_matches_relu_linear_then_dense_residual(self, rate):
        """The FFN node gives the output, the seven gradients and the
        generator draws of a relu of ``linear`` followed by
        ``dense_residual_layer_norm`` bit for bit, over a padded batch."""
        leaves, mask = ffn_args()
        x, w1, b1, w2, b2, gain, bias = leaves
        weight = ad.Tensor(rng.standard_normal(x.shape))

        def fused(gen):
            keep = ad.dropout_keep(x.shape, rate, gen, mask)
            return ad.ffn_residual_layer_norm(*leaves, keep, rate)

        def chain(gen):
            keep = ad.dropout_keep(x.shape, rate, gen, mask)
            h = relu(linear(x, w1, b1))
            return dense_residual_layer_norm(x, h, w2, b2, gain, bias, keep, rate)

        runs = []
        for op in (fused, chain):
            for t in leaves:
                t.grad = None
            gen = np.random.default_rng(9)
            out = op(gen)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves] + [gen.random()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
        assert (relu(linear(x, w1, b1)).data == 0).any()  # some units are dead

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_ffn_node_gradient(self, rate):
        leaves, mask = ffn_args()
        keep = ad.dropout_keep(leaves[0].shape, rate, np.random.default_rng(3), mask)
        assert_grads_match(lambda: ad.ffn_residual_layer_norm(*leaves, keep, rate), leaves)

    def test_residual_free_ffn_node_matches_the_fusion_tail_chain(self):
        """Without the residual, the node gives the output [2 x 3 x 4] and
        the seven gradients of the ``linear`` + relu, ``linear`` and
        ``layer_norm`` chain bit for bit."""
        leaves, _ = ffn_args(d_out=4)
        weight = ad.Tensor(rng.standard_normal((2, 3, 4)))
        runs = []
        for op in (lambda: ad.ffn_residual_layer_norm(*leaves, residual=False),
                   lambda: fusion_tail(*leaves)):
            for t in leaves:
                t.grad = None
            out = op()
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
        assert runs[0][0].shape == (2, 3, 4)
        assert (relu(linear(leaves[0], *leaves[1:3])).data == 0).any()  # some units are dead

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_residual_free_ffn_node_gradient(self, rate):
        leaves, mask = ffn_args(d_out=4)
        keep = ad.dropout_keep((2, 3, 4), rate, np.random.default_rng(3), mask)
        assert_grads_match(
            lambda: ad.ffn_residual_layer_norm(*leaves, keep, rate, residual=False), leaves
        )

    def test_ffn_node_stores_no_relu_layer(self):
        """The node's closure holds no [rows x d_ff] array: the relu layer is
        recomputed in backward."""
        leaves, _ = ffn_args()
        out = ad.ffn_residual_layer_norm(*leaves)
        cells = [c.cell_contents for c in out._vjp.__closure__]
        held = [a for a in cells if isinstance(a, np.ndarray)]
        assert all(a.shape[-1] != leaves[1].shape[1] for a in held)

    def test_ffn_node_rejects_mismatched_shapes(self):
        (x, w1, b1, w2, b2, gain, bias), _ = ffn_args()
        with pytest.raises(ValueError, match="ffn shape mismatch"):
            ad.ffn_residual_layer_norm(leaf(x.data[..., :4]), w1, b1, w2, b2, gain, bias)
        with pytest.raises(ValueError, match="ffn shape mismatch"):
            ad.ffn_residual_layer_norm(x, w1, leaf(b1.data[:2]), w2, b2, gain, bias)
        with pytest.raises(ValueError, match="ffn shape mismatch"):
            ad.ffn_residual_layer_norm(x, w1, b1, leaf(w2.data[:2]), b2, gain, bias)

    def test_ffn_node_refuses_an_output_width_unlike_x_with_the_residual(self):
        """w2 [5 x 4] over x [..., 6] makes a fusion tail, but no residual sum."""
        (x, w1, b1, w2, b2, gain, bias), _ = ffn_args(d_out=4)
        with pytest.raises(ValueError, match="ffn shape mismatch"):
            ad.ffn_residual_layer_norm(x, w1, b1, w2, b2, gain, bias)
        tail = ad.ffn_residual_layer_norm(x, w1, b1, w2, b2, gain, bias, residual=False)
        assert tail.shape == (2, 3, 4)
        with pytest.raises(ValueError, match="ffn shape mismatch: .* without residual"):
            ad.ffn_residual_layer_norm(x, w1, b1, w2, leaf(b2.data[:2]), gain, bias, residual=False)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["key_padding", "causal", "cross"])
    def test_attention_node_matches_query_attention_then_dense_residual(
        self, kind, rate, n_heads
    ):
        """The attention sublayer node gives the output, the keys and values,
        every gradient and the generator draws of the key and value
        ``linear`` nodes, the query ``linear``, ``attention`` and
        ``dense_residual_layer_norm`` bit for bit.  Its input is also
        gathered beside its output, as the fusion layer gathers a stack, so
        the input holds a gradient before the sublayer adds its own."""
        leaves, source, mask, tokens = attention_node_args(kind)
        x, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = leaves[:11]
        weight = ad.Tensor(rng.standard_normal((2, 4, 2 * 8)))

        def fused(keep):
            return ad.attention_residual_layer_norm(
                x, source, None, *leaves[1:11], n_heads, mask, keep, rate
            )

        def chain(keep):
            k, v = linear(source, wk, bk), linear(source, wv, bv)
            heads = attention(linear(x, wq, bq), k, v, n_heads, mask)
            out = dense_residual_layer_norm(x, heads, wo, bo, gain, bias, keep, rate)
            return out, (k.data, v.data)

        runs = []
        for op in (fused, chain):
            for t in leaves:
                t.grad = None
            gen = np.random.default_rng(9)
            out, kv = op(ad.dropout_keep(x.shape, rate, gen, tokens))
            ad.backward(sum_(mul(ad.gather_layers([x, out]), weight)))
            runs.append([out.data, *kv] + [t.grad for t in leaves] + [gen.random()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize(
        "rate,kind", [(0.0, "key_padding"), (0.3, "causal"), (0.3, "cross"), (0.3, "past")]
    )
    def test_attention_node_gradient(self, rate, kind, n_heads):
        """Every input, the key and value source and its projections
        included, against central differences; with ``past``, 3 cached key
        and value rows come before the source's, and get no gradient.  A
        key bias adds the same to every score of a row, so without ``past``
        its exact gradient is zero, and it is compared by absolute value."""
        leaves, source, mask, tokens = attention_node_args("none" if kind == "past" else kind, d=4)
        past = None
        if kind == "past":
            past = tuple(rng.standard_normal((2, 3, 4)) for _ in range(2))
            mask = np.tril(np.ones((4, 7), bool), 3)[None, None]
        keep = ad.dropout_keep(leaves[0].shape, rate, np.random.default_rng(3), tokens)
        bk = leaves[4]
        assert_grads_match(
            lambda: ad.attention_residual_layer_norm(
                leaves[0], source, past, *leaves[1:11], n_heads, mask, keep, rate
            )[0],
            [t for t in leaves if past is not None or t is not bk],
        )
        if past is None:
            assert np.abs(bk.grad).max() < 1e-13

    def test_attention_node_in_float32_under_no_grad_matches_the_chain(self):
        leaves, _, mask, _ = attention_node_args("causal")
        x, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = (
            ad.Tensor(t.data.astype(np.float32), requires_grad=True) for t in leaves
        )
        with ad.no_grad():
            out, (k, v) = ad.attention_residual_layer_norm(
                x, x, None, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias, 2, mask
            )
            want_k, want_v = linear(x, wk, bk), linear(x, wv, bv)
            heads = attention(linear(x, wq, bq), want_k, want_v, 2, mask)
            want = dense_residual_layer_norm(x, heads, wo, bo, gain, bias)
        assert out.data.dtype == k.dtype == v.dtype == np.float32 and out._vjp is None
        for got, want in [(out.data, want.data), (k, want_k.data), (v, want_v.data)]:
            np.testing.assert_array_equal(got, want)

    def test_attention_node_over_cached_keys_and_values_projects_only_src(self):
        """With ``past``, the keys and values are the cached rows followed by
        the projections of ``src``, and the output equals the node's over
        the whole source at the new rows; with ``past`` alone, nothing is
        projected: the node returns the cached arrays themselves."""
        leaves, _, _, _ = attention_node_args("none")
        x, weights = leaves[0], leaves[1:11]
        with ad.no_grad():
            whole, (k, v) = ad.attention_residual_layer_norm(
                x, x, None, *weights, 2, np.tril(np.ones((4, 4), bool))[None, None]
            )
            new = ad.Tensor(x.data[:, 3:])
            step, (k_step, v_step) = ad.attention_residual_layer_norm(
                new, new, (k[:, :3], v[:, :3]), *weights, 2
            )
            cached, kv = ad.attention_residual_layer_norm(new, None, (k, v), *weights, 2)
        np.testing.assert_allclose(step.data, whole.data[:, 3:], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(k_step, k)
        np.testing.assert_array_equal(v_step, v)
        np.testing.assert_allclose(cached.data, whole.data[:, 3:], rtol=1e-12, atol=1e-12)
        assert kv[0] is k and kv[1] is v

    @pytest.mark.parametrize("kind", ["causal", "cross"])
    def test_attention_node_stores_no_query_or_heads(self, kind):
        """Beside its inputs, the node holds its output, the normalized sum,
        the norm's [rows x 1] scale, the softmax probabilities and the
        dropout mask: no [rows x d] query or merged heads, and no [B x Lk x
        d] keys or values, though it returns them."""
        leaves, source, mask, tokens = attention_node_args(kind)
        x = leaves[0]
        keep = ad.dropout_keep(x.shape, 0.3, rng, tokens)
        out, kv = ad.attention_residual_layer_norm(
            x, source, None, *leaves[1:11], 2, mask, keep, 0.3
        )
        inputs = {id(t.data) for t in leaves}
        held = {}
        for a in [out.data, *closure_arrays(out._vjp)]:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in inputs:
                held[id(a)] = a.nbytes
        assert all(id(a) not in held for a in kv)
        (b, lq, d), lk = x.shape, source.shape[1]
        probs = 8 * b * 2 * lq * lk
        assert sum(held.values()) == 2 * out.data.nbytes + 8 * b * lq + probs + keep.nbytes

    def test_attention_node_backward_holds_one_projection_at_a_time(self):
        """Beside the gradients it returns, backward holds at most two
        arrays the size of the keys: a recomputed projection and its
        gradient, or a gradient in the heads' layout and its contiguous
        copy.  Add the scores' gradient and numpy's ufunc buffer; a third
        [B x Lk x d] array, such as the keys beside the values, would not
        fit."""
        b, lq, lk, d = 2, 2, 1024, 32
        x, src = leaf(rng.standard_normal((b, lq, d))), leaf(rng.standard_normal((b, lk, d)))
        weights = [leaf(rng.standard_normal(s) / 4) for _ in range(4) for s in ((d, d), (d,))]
        norm = [leaf(np.ones(d)), leaf(np.zeros(d))]
        out, _ = ad.attention_residual_layer_norm(x, src, None, *weights, *norm, 2)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out._vjp(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in grads)
        projection, scores = src.data.nbytes, 8 * b * 2 * lq * lk
        scratch = 2 * projection + scores + 8 * np.getbufsize()
        assert peak <= returned + scratch
        assert scratch < 3 * projection

    def test_attention_node_rejects_mismatched_shapes(self):
        leaves, _, _, _ = attention_node_args("causal")
        x, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = leaves
        kv = (np.ones((2, 3, 8)), np.ones((2, 3, 8)))

        def call(x=x, src=x, past=None, wq=wq, bk=bk, wv=wv, bo=bo, gain=gain, n_heads=2,
                 mask=None):
            return ad.attention_residual_layer_norm(
                x, src, past, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias, n_heads, mask
            )

        for bad in (
            dict(n_heads=3),
            dict(src=None),
            dict(src=leaf(x.data[:1])),
            dict(src=leaf(x.data[..., :4])),
            dict(past=(kv[0], kv[1][:, :2])),
            dict(past=(kv[0][:1], kv[1][:1])),
            dict(wq=leaf(wq.data[:4])),
            dict(wv=leaf(wv.data[:, :4])),
            dict(bk=leaf(bk.data[:4])),
            dict(bo=leaf(bo.data[:4])),
        ):
            with pytest.raises(ValueError, match="attention shape mismatch"):
                call(**bad)
        with pytest.raises(ValueError, match="does not broadcast"):
            call(mask=np.ones((2, 1, 3, 4), bool))
        with pytest.raises(ValueError, match="does not broadcast"):
            call(past=kv, mask=np.ones((2, 1, 4, 4), bool))  # 3 cached keys and 4 new
        with pytest.raises(ValueError, match="affine shape"):
            call(gain=leaf(gain.data[:4]))

    @pytest.mark.parametrize("rate,mask_rows", [(0.0, False), (0.4, False), (0.4, True)])
    def test_fused_ops_match_their_unfused_chains(self, rate, mask_rows):
        """Values, gradients and generator draws agree bit for bit with the
        unfused chain and with ``residual_layer_norm`` after the projection,
        the ops the model ran before; the fused ops only store less."""
        leaves, mask = residual_args(mask_rows)
        x, h, w, b, gain, bias = leaves
        w2, b2 = leaf(rng.standard_normal((6, 5))), leaf(rng.standard_normal(5))
        weight = ad.Tensor(rng.standard_normal((2, 3, 5)))

        def fused(gen):
            keep = ad.dropout_keep(x.shape, rate, gen, mask)
            return linear(dense_residual_layer_norm(*leaves, keep, rate), w2, b2)

        def before(gen):
            keep = ad.dropout_keep(x.shape, rate, gen, mask)
            sub = linear(h, w, b)
            return linear(residual_layer_norm(x, sub, gain, bias, keep, rate), w2, b2)

        def chain(gen):
            norm = unfused_dense_residual_norm(x, h, w, b, gain, bias, rate, gen, mask)
            return unfused_linear(norm, w2, b2)

        runs = []
        for op in (fused, before, chain):
            for t in leaves + [w2, b2]:
                t.grad = None
            gen = np.random.default_rng(9)
            out = op(gen)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves + [w2, b2]] + [gen.random()])
        for other in runs[1:]:
            for got, want in zip(runs[0], other):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rate,mask_rows", [(0.0, False), (0.4, False), (0.4, True)])
    def test_embed_matches_lookup_add_dropout(self, rate, mask_rows):
        """At positions from 2 on, the value, the table gradient and the
        generator draws agree bit for bit with the chain ``embed`` fuses, and
        the gradient matches finite differences."""
        table, ids = leaf(rng.standard_normal((7, 6))), np.array([[1, 3, 1], [6, 0, 0]])
        positions = positional_encoding(5, 6)[2:]
        mask = np.array([[True, True, True], [True, False, False]]) if mask_rows else None
        weight = ad.Tensor(rng.standard_normal((2, 3, 6)))

        def fused(gen):
            keep = ad.dropout_keep(ids.shape + (6,), rate, gen, mask)
            return ad.embed(table, ids, positions, keep, rate)

        def chain(gen):
            x = add(embedding_lookup(table, ids), ad.Tensor(positions))
            return dropout(x, rate, gen, mask)

        runs = []
        for op in (fused, chain):
            table.grad = None
            gen = np.random.default_rng(9)
            out = op(gen)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data, table.grad, gen.random()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
        table.grad = None
        assert_grads_match(lambda: fused(np.random.default_rng(9)), [table])
        np.testing.assert_array_equal(table.grad[[2, 4, 5]], 0.0)  # ids never looked up

    def test_embed_rejects_bad_ids_and_positions(self):
        table, positions = leaf(np.ones((4, 3))), np.zeros((2, 3))
        with pytest.raises(IndexError, match="out of range"):
            ad.embed(table, [[1, 4]], positions)
        with pytest.raises(ValueError, match="positions"):
            ad.embed(table, [[1, 2, 3]], positions)

    @pytest.mark.parametrize("first", [0, 1], ids=["with_embedding", "without_embedding"])
    @pytest.mark.parametrize("mask_rows", [False, True])
    def test_gather_layers_matches_stack_then_rows(self, first, mask_rows):
        """Bit for bit the stack, flatten and row gather it fuses, over the
        whole stack or from layer 1 on, as ``include_embedding`` picks;
        layers get no gradient outside ``rows``."""
        stack_ = [leaf(rng.standard_normal((2, 3, 4))) for _ in range(3)]
        layers = stack_[first:]
        mask = np.array([[True, True, False], [True, False, False]]) if mask_rows else None
        lead = (3,) if mask_rows else (2, 3)
        weight = ad.Tensor(rng.standard_normal(lead + (len(layers) * 4,)))

        def chain():
            joined = reshape(stack(layers, axis=-2), (2, 3, len(layers) * 4))
            return joined if mask is None else slice_(joined, mask)

        runs = []
        for op in (lambda: ad.gather_layers(layers, mask), chain):
            for t in layers:
                t.grad = None
            out = op()
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data] + [t.grad for t in layers])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
        for t in layers:
            t.grad = None
        assert_grads_match(lambda: ad.gather_layers(layers, mask), layers)
        if mask_rows:
            for t in layers:
                np.testing.assert_array_equal(t.grad[~mask], 0.0)

    def test_gather_layers_rejects_mismatched_shapes(self):
        a, b = leaf(np.ones((2, 3, 4))), leaf(np.ones((2, 2, 4)))
        with pytest.raises(ValueError, match="equal shapes"):
            ad.gather_layers([a, b])
        with pytest.raises(ValueError, match="rows"):
            ad.gather_layers([a], np.ones((2, 2), dtype=bool))

    # the last lead spans several of backward's row blocks of positions
    @pytest.mark.parametrize("lead", [(5,), (2, 3), (2, ad.BLOCK_ROWS + 1)])
    @pytest.mark.parametrize("share_w1", [True, False])
    @pytest.mark.parametrize("n_hop", [1, 4])
    def test_layer_attention_matches_unfused_chain(self, lead, share_w1, n_hop):
        """The output, the hop weights and the gradients of the layers and
        the layer embedding equal the chain's bit for bit; so do the weight
        gradients over one block of positions.  Over several blocks those
        are sums of the blocks' shares, and match to 1e-13 of their largest
        entry (single entries near zero cancel to fewer bits)."""
        layers, embed, w1, w2 = layer_attention_args(lead, n_hop, share_w1)
        leaves = [layers, embed, *([w1] if share_w1 else w1), w2]
        weight = ad.Tensor(rng.standard_normal(lead + (n_hop * 4,)))
        runs = []
        for op in (ad.layer_attention, unfused_layer_attention):
            for t in leaves:
                t.grad = None
            out, weights = op(layers, embed, w1, w2)
            ad.backward(sum_(mul(out, weight)))
            runs.append([out.data, weights] + [t.grad for t in leaves])
        blocks = len(ad._row_blocks(int(np.prod(lead)), ad.BLOCK_ROWS // 3))  # backward's, n = 3
        for i, (got, want) in enumerate(zip(*runs)):
            if i >= 4 and blocks > 1:  # w1 (one or per layer) and w2
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
            else:
                np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(runs[0][1].sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "positions, n_hop", [(2 * ad.BLOCK_ROWS + 37, 4), (600, 2), (1000, 1)]
    )
    def test_layer_attention_forward_at_de_en_widths_equals_the_chain(self, positions, n_hop):
        """At de_en widths (4 layers, d = 256, d_a = 1024) the output and the
        hop weights equal the unfused chain's bit for bit, at any number of
        positions and hops: the forward forms the whole product as the chain
        does, so OpenBLAS picks the same kernel for both."""
        n, d, d_a = 4, 256, 1024
        layers, embed, w1, w2 = layer_attention_args((positions,), n_hop, True, n, d, d_a)
        with ad.no_grad():
            got, weights = ad.layer_attention(layers, embed, w1, w2)
            want, want_weights = unfused_layer_attention(layers, embed, w1, w2)
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(weights, want_weights)

    @pytest.mark.parametrize("share_w1", [True, False])
    @pytest.mark.parametrize("n_hop", [1, 4])
    def test_layer_attention_gradient(self, share_w1, n_hop):
        layers, embed, w1, w2 = layer_attention_args((5,), n_hop, share_w1)
        leaves = [layers, embed, *([w1] if share_w1 else w1), w2]
        assert_grads_match(lambda: ad.layer_attention(layers, embed, w1, w2)[0], leaves, 1e-5)

    @pytest.mark.parametrize("share_w1", [True, False])
    def test_layer_attention_stores_no_hidden_layer(self, share_w1):
        """Beside its inputs, the node holds its output and the hop weights
        alone: no [rows * n, d_a] hidden layer, which backward recomputes."""
        layers, embed, w1, w2 = layer_attention_args((2, ad.BLOCK_ROWS + 1), 4, share_w1)
        out, weights = ad.layer_attention(layers, embed, w1, w2)
        inputs = {id(t.data) for t in [layers, embed, *([w1] if share_w1 else w1), w2]}

        held = {}
        for a in [out.data, *closure_arrays(out._vjp)]:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in inputs:
                held[id(a)] = a.nbytes
        assert sum(held.values()) == out.data.nbytes + weights.nbytes

    @pytest.mark.parametrize("share_w1", [True, False])
    def test_layer_attention_forward_allocates_one_hidden_layer(self, share_w1):
        """Beside its output and the hop weights, the forward holds one
        [rows * n, d_a] hidden layer, one [rows, n, d] ``layers + embed`` and
        numpy's ufunc buffer; never a second hidden layer."""
        rows, n, d, d_a, n_hop = 4 * ad.BLOCK_ROWS, 4, 32, 64, 2
        layers, embed, w1, w2 = layer_attention_args((rows,), n_hop, share_w1, n, d, d_a)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, weights = ad.layer_attention(layers, embed, w1, w2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        scratch = 8 * (rows * n * d_a + rows * n * d + np.getbufsize())
        assert peak <= out.data.nbytes + weights.nbytes + scratch
        assert rows * n * d + np.getbufsize() < rows * n * d_a  # no room for a second hidden layer

    @pytest.mark.parametrize("share_w1", [True, False])
    def test_layer_attention_backward_allocates_only_its_gradients(self, share_w1):
        """Beside the gradients it returns, backward holds one block of about
        ``BLOCK_ROWS`` hidden rows and their gradient, the block's
        ``layers + embed`` rows, a block's share of a w1 gradient, numpy's
        ufunc buffer (a broadcast add) and, with a w1 per layer, one layer's
        copies of a block; never a [rows, n, d] buffer."""
        rows, n, d, d_a, n_hop = 4 * ad.BLOCK_ROWS, 4, 32, 64, 2
        layers, embed, w1, w2 = layer_attention_args((rows,), n_hop, share_w1, n, d, d_a)
        out, _ = ad.layer_attention(layers, embed, w1, w2)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out._vjp(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in grads)
        scratch = 8 * (2 * ad.BLOCK_ROWS * d_a + ad.BLOCK_ROWS * d + d * d_a + np.getbufsize())
        if not share_w1:
            scratch += 8 * ad.BLOCK_ROWS // n * (d_a + 2 * d)
        assert peak <= returned + scratch
        assert scratch < layers.data.nbytes

    def test_layer_attention_rejects_bad_shapes(self):
        layers, embed, w1, w2 = layer_attention_args((5,), 2, False)
        with pytest.raises(ValueError, match="layer_attention shape mismatch"):
            ad.layer_attention(layers, leaf(embed.data[:2]), w1, w2)
        with pytest.raises(ValueError, match="layer_attention shape mismatch"):
            ad.layer_attention(layers, embed, w1[:2], w2)
        with pytest.raises(ValueError, match="layer_attention shape mismatch"):
            ad.layer_attention(layers, embed, w1[0], leaf(np.ones((5, 2))))

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

    def test_duplicate_name_rejected(self):
        store = ad.ParamStore()
        store.add("w", ad.Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            store.add("w", ad.Tensor(np.zeros(1)))

    def test_zero_grads(self):
        store = ad.ParamStore()
        t = store.add("w", ad.Tensor(np.ones(3)))
        ad.backward(sum_(t))
        assert t.grad is not None
        store.zero_grads()
        assert t.grad is None


def _src_modules() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    package = Path(ad.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}


def _references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs that ``module``'s source ``tree`` uses:
    names it imports from a sibling, attributes of a sibling it imports
    whole, and its own top-level names used outside their definitions."""
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                refs |= {(node.module, a.name) for a in node.names}
            else:
                aliases |= {a.asname or a.name: a.name for a in node.names}
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                refs.add((module, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in aliases
            ):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_public_function_has_a_src_caller():
    """Each public top-level function and class of every ``src/`` module is
    used elsewhere in the package, so code that only tests need cannot creep
    back.  A public function of ``mlrf.autodiff`` must be used by another
    module; ops that only tests need live in ``tests/conftest.py``."""
    modules = _src_modules()
    refs = {name: _references(name, tree) for name, tree in modules.items()}
    public, unused = [], []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.append((name, node.name))
            callers = {m for m, r in refs.items() if (name, node.name) in r}
            if name == "autodiff" and isinstance(node, ast.FunctionDef):
                callers.discard("autodiff")
            if not callers:
                unused.append(f"{name}.{node.name}")
    assert sum(m == "autodiff" for m, _ in public) > 10 and len(public) > 60
    assert unused == []


def test_no_function_in_src_imports():
    """Every import in ``src/`` is at a module's top level, so the package's
    import graph is the one its module headers show, and a cycle cannot hide
    behind an import deferred into a function."""
    deferred = [
        f"{name}.py:{node.lineno}"
        for name, tree in _src_modules().items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []
