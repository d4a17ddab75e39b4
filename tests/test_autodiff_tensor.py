"""Unit tests for the core Tensor ops and backprop machinery."""

import numpy as np
import pytest

from repro.autodiff import Tensor, concat, maximum, minimum, stack, where


RNG = np.random.default_rng(0)


def test_tensor_construction_defaults():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.shape == (3,)
    assert not t.requires_grad
    assert t.grad is None


def test_tensor_from_tensor_shares_data():
    a = Tensor([1.0, 2.0])
    b = Tensor(a)
    assert b.data is a.data


def test_backward_requires_grad_flag():
    t = Tensor([1.0], requires_grad=False)
    with pytest.raises(RuntimeError):
        t.backward()


def test_backward_requires_scalar_without_explicit_grad():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        t.backward()


def test_add_backward_accumulates_to_both_operands():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 1.0])
    np.testing.assert_allclose(b.grad, [1.0, 1.0])


def test_broadcast_add_sums_gradient():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(b.grad, [3.0] * 4)


def test_broadcast_mul_keepdims_axis():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((2, 1), 3.0))


def test_scalar_arithmetic_both_sides():
    a = Tensor([2.0], requires_grad=True)
    out = (3.0 * a + 1.0 - a / 2.0) - (1.0 - a)
    out.sum().backward()
    np.testing.assert_allclose(out.data, [7.0])
    np.testing.assert_allclose(a.grad, [3.5])


def test_reuse_of_node_accumulates_gradient():
    a = Tensor([3.0], requires_grad=True)
    out = a * a + a
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [7.0])


def test_accumulation_never_mutates_a_shared_first_gradient():
    """add's backward hands both operands the same array; a later
    accumulation into one operand must not leak into the other."""
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    ((a + b).sum() + (a * 3.0).sum()).backward()
    np.testing.assert_array_equal(b.grad, np.ones((3, 2)))
    np.testing.assert_array_equal(a.grad, np.full((3, 2), 4.0))
    scalar = Tensor(2.0, requires_grad=True)
    (scalar * scalar).backward()
    assert isinstance(scalar.grad, np.ndarray) and scalar.grad == 4.0
    given = np.array([1.0, 1.0])
    out = Tensor([1.0, 2.0], requires_grad=True) * 2.0
    out.backward(given)
    given[:] = 0.0
    np.testing.assert_array_equal(out.grad, [1.0, 1.0])  # the caller's copy


def test_diamond_graph_backprop():
    # a -> b, c -> d uses both paths; gradient must flow through both.
    a = Tensor([2.0], requires_grad=True)
    b = a * 3.0
    c = a * 4.0
    d = b * c  # d = 12 a^2, dd/da = 24 a = 48
    d.sum().backward()
    np.testing.assert_allclose(a.grad, [48.0])


def test_matmul_shapes_and_grads():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    out = a @ b
    assert out.shape == (3, 5)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))


def test_matmul_vector_cases():
    m = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    v = Tensor(RNG.normal(size=4), requires_grad=True)
    out = m @ v
    assert out.shape == (3,)
    out.sum().backward()
    np.testing.assert_allclose(v.grad, m.data.sum(axis=0))


def test_sum_axis_keepdims():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    out = a.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 3)))


def test_mean_scales_gradient():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    a.mean().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))


def test_mean_axis():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    a.mean(axis=0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 0.5))


def test_max_reduction_ties_split_gradient():
    a = Tensor([1.0, 5.0, 5.0], requires_grad=True)
    a.max().backward()
    np.testing.assert_allclose(a.grad, [0.0, 0.5, 0.5])


def test_getitem_scatter_backward():
    a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = a[np.array([0, 0, 2])]
    out.sum().backward()
    expected = np.zeros((4, 3))
    expected[0] = 2.0
    expected[2] = 1.0
    np.testing.assert_allclose(a.grad, expected)


def test_gather_matches_getitem():
    a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 3, 1])
    out = a.gather(idx)
    np.testing.assert_allclose(out.data, a.data[idx])
    out.sum().backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_allclose(a.grad, expected)


def test_reshape_transpose_roundtrip():
    a = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
    out = a.reshape(3, 4).transpose()
    assert out.shape == (4, 3)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 6)))


def test_concat_backward_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    np.testing.assert_allclose(a.grad, [[0.0, 1.0], [5.0, 6.0]])
    np.testing.assert_allclose(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


def test_stack_backward():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    out = stack([a, b], axis=0)
    assert out.shape == (2, 2)
    (out * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 2.0])
    np.testing.assert_allclose(b.grad, [3.0, 4.0])


def test_where_routes_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    out = where(np.array([True, False]), a, b)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0])


def test_maximum_minimum():
    a = Tensor([1.0, 5.0], requires_grad=True)
    b = Tensor([3.0, 2.0], requires_grad=True)
    np.testing.assert_allclose(maximum(a, b).data, [3.0, 5.0])
    np.testing.assert_allclose(minimum(a, b).data, [1.0, 2.0])


def test_detach_stops_gradient():
    a = Tensor([2.0], requires_grad=True)
    out = a.detach() * 3.0
    assert not out.requires_grad


def test_softmax_rows_sum_to_one():
    a = Tensor(RNG.normal(size=(4, 7)), requires_grad=True)
    s = a.softmax(axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_l2_normalize_unit_norm():
    a = Tensor(RNG.normal(size=(5, 8)), requires_grad=True)
    n = a.l2_normalize(axis=1)
    np.testing.assert_allclose(np.linalg.norm(n.data, axis=1), np.ones(5), atol=1e-9)


def test_dropout_zero_rate_is_identity():
    a = Tensor(np.ones((3, 3)), requires_grad=True)
    out = a.dropout(0.0, np.random.default_rng(0))
    assert out is a


def test_dropout_scales_kept_units():
    rng = np.random.default_rng(0)
    a = Tensor(np.ones((100, 100)), requires_grad=True)
    out = a.dropout(0.5, rng)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, np.full_like(kept, 2.0))


def test_clip_gradient_mask():
    a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
    a.clip(-1.0, 1.0).sum().backward()
    np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


def test_pow_requires_scalar_exponent():
    a = Tensor([1.0], requires_grad=True)
    with pytest.raises(TypeError):
        a ** Tensor([2.0])
