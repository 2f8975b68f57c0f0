"""Tests for the autodiff tensor: correctness of gradients and operations."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, concatenate, stack, where
from repro.nn.functional import numerical_gradient


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestBasicOps:
    def test_add_broadcast_gradients(self):
        a = Tensor(_rand((3, 4)), requires_grad=True)
        b = Tensor(_rand((4,), seed=1), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_gradients(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_div_neg(self):
        a = Tensor(np.array([4.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        out = (a - b) / b + (-a)
        out.backward(np.array([1.0]))
        # d/da[(a-b)/b - a] = 1/b - 1 = -0.5 ; d/db = -a/b^2 = -1.0
        np.testing.assert_allclose(a.grad, [-0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_matmul_gradients_match_numerical(self):
        a_val = _rand((3, 4))
        b_val = _rand((4, 2), seed=2)

        def f(x):
            return float((Tensor(x) @ Tensor(b_val)).sum().data)

        a = Tensor(a_val, requires_grad=True)
        (a @ Tensor(b_val)).sum().backward()
        numeric = numerical_gradient(f, a_val)
        np.testing.assert_allclose(a.grad, numeric, atol=1e-6)

    def test_batched_matmul(self):
        a = Tensor(_rand((2, 3, 4)), requires_grad=True)
        b = Tensor(_rand((2, 4, 5), seed=3), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_pow_and_scalar_ops(self):
        x_val = np.array([[1.0, 2.0], [3.0, 4.0]])

        def f(v):
            t = Tensor(v, requires_grad=True)
            return float(((t * 2 + 1) ** 2.0).sum().data)

        x = Tensor(x_val, requires_grad=True)
        ((x * 2 + 1) ** 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(f, x_val), atol=1e-5)

    def test_rsub_rdiv(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = 10.0 - x
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [-1.0])
        y = Tensor(np.array([2.0]), requires_grad=True)
        (10.0 / y).backward(np.array([1.0]))
        np.testing.assert_allclose(y.grad, [-2.5])


class TestActivations:
    @pytest.mark.parametrize("op", ["tanh", "sigmoid", "relu", "gelu", "exp", "abs",
                                    "log_softmax"])
    def test_unary_matches_numerical(self, op):
        x_val = _rand((4, 3), seed=5)

        def f(v):
            return float(getattr(Tensor(v), op)().sum().data)

        x = Tensor(x_val, requires_grad=True)
        getattr(x, op)().sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(f, x_val), atol=1e-5)

    def test_log_positive_domain(self):
        x_val = np.abs(_rand((3, 3))) + 0.5
        x = Tensor(x_val, requires_grad=True)
        x.log().sum().backward()
        np.testing.assert_allclose(x.grad, 1.0 / x_val, atol=1e-9)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(_rand((5, 7)))
        probs = x.softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_gradient(self):
        x_val = _rand((2, 4), seed=9)
        weights = _rand((2, 4), seed=10)

        def f(v):
            return float((Tensor(v).softmax(axis=-1) * Tensor(weights)).sum().data)

        x = Tensor(x_val, requires_grad=True)
        (x.softmax(axis=-1) * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(f, x_val), atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(_rand((3, 6)))
        np.testing.assert_allclose(x.log_softmax().data, np.log(x.softmax().data), atol=1e-10)

    def test_clip_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_mean_axis(self):
        x = Tensor(_rand((3, 4, 5)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4, 5), 1.0 / 4))

    def test_var_matches_numpy(self):
        data = _rand((6, 3))
        np.testing.assert_allclose(Tensor(data).var(axis=0).data, data.var(axis=0), atol=1e-12)

    def test_max_gradient_flows_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_transpose_roundtrip_grad(self):
        x = Tensor(_rand((2, 3, 4)), requires_grad=True)
        y = x.reshape(6, 4).transpose(1, 0).reshape(2, 3, 4)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_gradient_accumulates(self):
        x = Tensor(_rand((5, 3)), requires_grad=True)
        (x[0] + x[0]).sum().backward()
        assert np.allclose(x.grad[0], 2.0)
        assert np.allclose(x.grad[1:], 0.0)

    def test_fancy_index_gradient(self):
        x = Tensor(_rand((4, 6)), requires_grad=True)
        idx = np.array([0, 2, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad[2], np.full(6, 2.0))
        np.testing.assert_allclose(x.grad[1], np.zeros(6))

    def test_pad_and_slice(self):
        x = Tensor(_rand((2, 3)), requires_grad=True)
        padded = x.pad(((0, 0), (1, 1)))
        assert padded.shape == (2, 5)
        padded.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_concatenate_and_stack(self):
        a = Tensor(_rand((2, 3)), requires_grad=True)
        b = Tensor(_rand((2, 3), seed=4), requires_grad=True)
        cat = concatenate([a, b], axis=1)
        assert cat.shape == (2, 6)
        stk = stack([a, b], axis=0)
        assert stk.shape == (2, 2, 3)
        (cat.sum() + stk.sum()).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))

    def test_where_select(self):
        cond = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


# A weighted sum, not ``.sum()``: an all-ones upstream gradient cannot tell a
# vjp that returns the wrong slice, axis order or broadcast from a right one.
_WHERE_CONDITION = np.array([[True, False, True], [False, False, True]])
_ROUTING_CASES = {
    "transpose": ([(2, 3, 4)], lambda x: x.transpose(2, 0, 1)),
    "reshape": ([(2, 3, 4)], lambda x: x.reshape(4, 6)),
    "pad": ([(2, 3)], lambda x: x.pad(((1, 0), (0, 2)))),
    "getitem_slice": ([(4, 5)], lambda x: x[1:3, ::2]),
    "getitem_fancy": ([(4, 3)], lambda x: x[np.array([0, 2, 2, 3])]),
    "max_keepdims": ([(3, 4)], lambda x: x.max(axis=1, keepdims=True)),
    "sum_axes_keepdims": ([(2, 3, 4)], lambda x: x.sum(axis=(0, 2), keepdims=True)),
    "concatenate": ([(2, 3), (2, 1), (2, 2)], lambda *xs: concatenate(xs, axis=1)),
    "stack": ([(2, 3), (2, 3), (2, 3)], lambda *xs: stack(xs, axis=1)),
    "where_broadcast": ([(1, 3), (2, 3)], lambda a, b: where(_WHERE_CONDITION, a, b)),
    "matmul_broadcast_batch": ([(2, 1, 3, 4), (3, 4, 2)], lambda a, b: a @ b),
}


@pytest.mark.parametrize("case", sorted(_ROUTING_CASES))
def test_weighted_gradient_matches_numerical(case):
    shapes, op = _ROUTING_CASES[case]
    values = [_rand(shape, seed=i) for i, shape in enumerate(shapes)]

    def loss(arrays, requires_grad=False):
        inputs = [Tensor(a, requires_grad=requires_grad) for a in arrays]
        out = op(*inputs)
        return inputs, (out * Tensor(_rand(out.shape, seed=99))).sum()

    inputs, total = loss(values, requires_grad=True)
    total.backward()
    for i, x in enumerate(inputs):
        def f(v, i=i):
            return float(loss(values[:i] + [v] + values[i + 1:])[1].data)

        np.testing.assert_allclose(x.grad, numerical_gradient(f, values[i].copy()),
                                   atol=1e-6, err_msg=f"input {i}")


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(_rand((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_gradient_shape_mismatch_rejected(self):
        x = Tensor(_rand((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(3))

    def test_detach_cuts_graph(self):
        x = Tensor(_rand((2, 2)), requires_grad=True)
        y = x.detach() * 3
        assert not y.requires_grad

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x
        (y + y).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_dropped_graph_is_freed_without_a_collection(self):
        x = Tensor(_rand((2, 2)), requires_grad=True)
        hidden = (x * 2.0).tanh()
        loss = hidden.sum()
        loss.backward()
        freed = weakref.ref(hidden.data)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del hidden, loss
            assert freed() is None  # no backward closure keeps its own node alive
        finally:
            if was_enabled:
                gc.enable()

    def test_item_and_len(self):
        t = Tensor(np.array([3.5]))
        assert t.item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12))
def test_property_softmax_is_distribution(values):
    probs = Tensor(np.asarray(values)).softmax(axis=-1).data
    assert probs.min() >= 0
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_property_matmul_shape(n, m):
    a = Tensor(np.ones((n, m)))
    b = Tensor(np.ones((m, 3)))
    assert (a @ b).shape == (n, 3)
    np.testing.assert_allclose((a @ b).data, np.full((n, 3), float(m)))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20))
def test_property_sum_linearity(values):
    arr = np.asarray(values)
    t = Tensor(arr, requires_grad=True)
    (t * 3.0).sum().backward()
    np.testing.assert_allclose(t.grad, np.full(arr.shape, 3.0))
