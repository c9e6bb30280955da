"""Kalman filter unit checks against straight-line oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pasf import kalman
from pasf.design import SeparationSpec, design_iir
from pasf.errors import (
    InvalidArgumentError,
    PoisonedStateError,
    SingularInnovationError,
)
from pasf.kalman import KalmanBelief, SystemModel, kf_predict, kf_update
from pasf.kfpasf import KfPasfState, zero_histories
from pasf.scenario_io import built_in


def _scalar_model(a=1.0, q=0.01, r=1.0):
    return SystemModel(A=[[a]], B=[[0.0]], C=[[1.0]], Q=[[q]], R=[[r]])


def test_identity_dynamics_leaves_belief_unchanged():
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
                        Q=np.zeros((2, 2)), R=np.eye(2))
    belief = KalmanBelief(x_hat=[1.0, -2.0], P=np.diag([0.5, 0.25]))
    pred = kf_predict(belief, model, [0.0])
    assert np.array_equal(pred.x_hat, belief.x_hat)
    assert np.array_equal(pred.P, belief.P)
    assert pred.t == belief.t + 1 and pred.phase == "predicted"


def test_scalar_prediction_covariance():
    model = _scalar_model(a=0.9, q=0.1)
    belief = KalmanBelief(x_hat=[0.0], P=[[1.0]])
    pred = kf_predict(belief, model, [0.0])
    assert pred.P[0, 0] == pytest.approx(0.91, abs=1e-15)


def test_predict_matches_matrix_oracle():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3)) * 0.4
    B = rng.standard_normal((3, 2))
    Qh = rng.standard_normal((3, 3))
    Q = Qh @ Qh.T
    model = SystemModel(A=A, B=B, C=np.eye(3), Q=Q, R=np.eye(3))
    x0 = rng.standard_normal(3)
    P0h = rng.standard_normal((3, 3))
    P0 = P0h @ P0h.T
    u = rng.standard_normal(2)
    pred = kf_predict(KalmanBelief(x_hat=x0, P=P0), model, u)
    assert np.allclose(pred.x_hat, A @ x0 + B @ u, atol=1e-12)
    assert np.allclose(pred.P, A @ P0 @ A.T + Q, atol=1e-12)


def test_update_scalar_closed_form():
    model = _scalar_model(q=0.0, r=1.0)
    pred = KalmanBelief(x_hat=[0.0], P=[[1.0]], phase="predicted")
    upd, g = kf_update(pred, model, [2.0])
    assert g[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert upd.P[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert upd.x_hat[0] == pytest.approx(1.0, abs=1e-15)


def test_huge_measurement_noise_ignores_measurement():
    model = _scalar_model(q=0.0, r=1e12)
    pred = KalmanBelief(x_hat=[1.0], P=[[1.0]], phase="predicted")
    upd, g = kf_update(pred, model, [100.0])
    assert abs(g[0, 0]) < 1e-9
    assert upd.x_hat[0] == pytest.approx(1.0, abs=1e-7)


def _riccati_fixed_point(q, r, tol=1e-12):
    """Iterate p <- q + p*r/(p + r) (predicted covariance) to convergence."""
    p = 1.0
    while True:
        p_next = q + p * r / (p + r)
        if abs(p_next - p) < tol:
            return p_next
        p = p_next


def test_scalar_steady_state_matches_riccati_oracle():
    q, r = 0.01, 1.0
    model = _scalar_model(a=1.0, q=q, r=r)
    belief = KalmanBelief(x_hat=[0.0], P=[[1.0]])
    p_pred = None
    for _ in range(2000):
        pred = kf_predict(belief, model, [0.0])
        p_pred = pred.P[0, 0]
        belief, _ = kf_update(pred, model, [0.0])
    expected = _riccati_fixed_point(q, r)
    assert p_pred == pytest.approx(expected, abs=1e-9)
    # the fixed point solves p^2 = q (p + r)
    assert expected**2 == pytest.approx(q * (expected + r), abs=1e-12)


def test_zero_noise_exact_model_keeps_zero_error():
    rng = np.random.default_rng(8)
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    model = SystemModel(A=A, B=B, C=C, Q=np.zeros((2, 2)), R=[[1.0]])
    x = np.array([0.3, -0.4])
    belief = KalmanBelief(x_hat=x.copy(), P=np.zeros((2, 2)))
    for _ in range(300):
        u = rng.standard_normal(1)
        x = A @ x + B @ u
        pred = kf_predict(belief, model, u)
        belief, _ = kf_update(pred, model, C @ x)
        assert np.max(np.abs(belief.x_hat - x)) < 1e-10


def test_covariance_stays_symmetric_psd_and_innovation_white():
    rng = np.random.default_rng(12)
    a, q, r = 0.95, 0.05, 0.5
    model = _scalar_model(a=a, q=q, r=r)
    x = 0.0
    belief = KalmanBelief(x_hat=[0.0], P=[[1.0]])
    innovations = []
    for _ in range(20_000):
        x = a * x + np.sqrt(q) * rng.standard_normal()
        y = x + np.sqrt(r) * rng.standard_normal()
        pred = kf_predict(belief, model, [0.0])
        innovations.append(y - pred.x_hat[0])
        belief, _ = kf_update(pred, model, [y])
        P = belief.P
        assert np.array_equal(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) > -1e-10
    nu = np.array(innovations[1000:])
    nu = nu - nu.mean()
    rho1 = float(np.dot(nu[1:], nu[:-1]) / np.dot(nu, nu))
    assert abs(rho1) < 0.05


def test_singular_innovation_raises():
    with pytest.warns(UserWarning):  # deliberately unobservable
        model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)),
                            C=np.array([[1.0, 0.0], [1.0, 0.0]]),
                            Q=np.zeros((2, 2)), R=np.zeros((2, 2)))
    pred = KalmanBelief(x_hat=[0.0, 0.0], P=np.eye(2), phase="predicted")
    with pytest.raises(SingularInnovationError):
        kf_update(pred, model, [0.0, 0.0])


def test_phase_discipline_enforced():
    model = _scalar_model()
    updated = KalmanBelief(x_hat=[0.0], P=[[1.0]])
    with pytest.raises(InvalidArgumentError):
        kf_update(updated, model, [0.0])
    pred = kf_predict(updated, model, [0.0])
    with pytest.raises(InvalidArgumentError):
        kf_predict(pred, model, [0.0])


def test_dimension_validation():
    with pytest.raises(InvalidArgumentError):
        SystemModel(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
    model = _scalar_model()
    with pytest.raises(InvalidArgumentError):
        kf_predict(KalmanBelief(x_hat=[0.0, 0.0], P=np.eye(2)), model, [0.0])


def _three_state_model():
    return SystemModel(A=np.eye(3, k=1) + 0.5 * np.eye(3), B=np.ones((3, 1)),
                       C=[[1.0, 0.0, 0.0]], Q=np.eye(3), R=[[1.0]])


@pytest.mark.parametrize("make, message", [
    (lambda: KalmanBelief(x_hat=[0.0, 0.0, 0.0], P=[[1.0, 2.0, 3.0]]),
     r"P must be 3 x 3, got shape \(1, 3\)"),
    (lambda: KalmanBelief(x_hat=[0.0], P=5.0), r"P must be 1 x 1, got shape \(\)"),
    (lambda: KalmanBelief(x_hat=[0.0], P=[[1.0]], phase="bogus"),
     "phase must be 'updated' or 'predicted', got 'bogus'"),
    (lambda: kf_update(KalmanBelief(x_hat=[0.0, 0.0], P=np.eye(2), phase="predicted"),
                       _three_state_model(), [0.0]),
     "belief dimension does not match model"),
    (lambda: kf_predict(KalmanBelief(x_hat=[0.0, 0.0], P=np.eye(2)),
                        _three_state_model(), [0.0]),
     "belief dimension does not match model"),
    (lambda: KalmanBelief(x_hat=[0.0, 0.0], P=[[np.nan, 0.0], [0.0, np.inf]]), None),
], ids=["P-row", "P-0d", "phase", "update-dim", "predict-dim", "non-finite-P-kept"])
def test_belief_checks_itself_and_its_dimension_against_the_model(make, message):
    """A belief's P must be (len(x), len(x)) and its phase one of the two;
    predict and update refuse a belief of another dimension than the model.
    A non-finite P is kept: it poisons the next step."""
    if message is None:
        assert not np.isfinite(make().P).all()
        return
    with pytest.raises(InvalidArgumentError, match=message):
        make()


def test_unobservable_model_warns():
    with pytest.warns(UserWarning):
        SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0]],
                    Q=np.zeros((2, 2)), R=[[1.0]])


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _scalar_measurement_update(draw):
    """A predicted belief with a random SPD P and a model with one output."""
    n = draw(st.integers(1, 4))
    M = draw(hnp.arrays(float, (n, n), elements=_entries))
    ridge = draw(hnp.arrays(float, n, elements=st.floats(1e-6, 1e3)))
    scale = 10.0 ** draw(st.floats(-6, 6))
    P = scale * (M @ M.T + np.diag(ridge))
    C = draw(hnp.arrays(float, (1, n), elements=st.floats(-10, 10)))
    r = draw(st.floats(1e-9, 1e3))
    x_hat = draw(hnp.arrays(float, n, elements=_entries))
    y = draw(_entries)
    model = SystemModel(A=np.eye(n), B=np.zeros((n, 1)), C=C,
                        Q=np.zeros((n, n)), R=[[r]])
    return model, KalmanBelief(x_hat=x_hat, P=P, phase="predicted"), [y]


@pytest.mark.filterwarnings("ignore:model is not observable")
@settings(max_examples=300, deadline=None)
@given(_scalar_measurement_update())
def test_scalar_innovation_closed_form_equals_cholesky_path_bitwise(case):
    model, pred, y = case
    assert model.m == 1
    upd, g = kf_update(pred, model, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kalman, "_scalar_gain", kalman._general_gain)
        ref, g_ref = kf_update(pred, model, y)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(upd.x_hat, ref.x_hat)
    assert np.array_equal(upd.P, ref.P)


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_scalar_nonpositive_innovation_raises(p):
    model = _scalar_model(q=0.0, r=0.0)
    pred = KalmanBelief(x_hat=[0.0], P=[[p]], phase="predicted")
    with pytest.raises(SingularInnovationError):
        kf_update(pred, model, [0.0])


def test_nan_covariance_poisons_the_estimator():
    model = _scalar_model(q=0.0, r=1.0)
    p, a = design_iir(SeparationSpec(1.0, 2, 0.5), 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), [[np.nan]])
    with pytest.raises(PoisonedStateError):
        state.step([0.0], [1.0])
    with pytest.raises(PoisonedStateError):
        state.step([0.0], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_non_finite_measurement_poisons_the_estimator(bad, n):
    """A non-finite y raises on its own step and on every later one."""
    model = SystemModel(A=0.5 * np.eye(n) + 0.1 * np.eye(n, k=1),
                        B=np.ones((n, 1)), C=np.eye(1, n),
                        Q=0.01 * np.eye(n), R=[[1.0]])
    p, a = design_iir(SeparationSpec(1.0, 2, 0.5), 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), np.eye(n))
    state.step([0.0], [1.0])
    with np.errstate(invalid="ignore"), pytest.raises(PoisonedStateError):
        state.step([0.0], [bad])
    with pytest.raises(PoisonedStateError):
        state.step([0.0], [1.0])


def _oracle_chain(model, P0, inputs):
    """Per-step oracle: each belief is rebuilt through the public
    constructor, so the recursion never freezes. Yields (x, P, gain)."""
    belief = KalmanBelief(x_hat=np.zeros(model.n), P=P0)
    for u, y in inputs:
        pred = kf_predict(
            KalmanBelief(belief.x_hat, belief.P, belief.t, "updated"), model, u)
        belief, gain = kf_update(
            KalmanBelief(pred.x_hat, pred.P, pred.t, "predicted"), model, y)
        yield belief.x_hat, belief.P, gain


def _assert_memoized_chain_matches_oracle(model, P0, inputs):
    """Run the chain kf_predict/kf_update hand on to each other against the
    oracle, bitwise; return the step it froze at (None if it never did) and
    the oracle's first step whose updated P repeats the previous one."""
    belief = KalmanBelief(x_hat=np.zeros(model.n), P=P0)
    repeat_at = None
    P_prev = belief.P
    for t, ((u, y), (x, P, gain)) in enumerate(
            zip(inputs, _oracle_chain(model, P0, inputs)), start=1):
        belief, g = kf_update(kf_predict(belief, model, u), model, y)
        assert belief.x_hat.tobytes() == x.tobytes(), t
        assert belief.P.tobytes() == P.tobytes(), t
        assert g.tobytes() == gain.tobytes(), t
        if repeat_at is None and P.tobytes() == P_prev.tobytes():
            repeat_at = t
        P_prev = P
    fixed = belief._fixed
    return (None if fixed is None else fixed.t), repeat_at


@st.composite
def _stable_models(draw):
    """A model with n = 1..4 states, p = 1 (``B u`` through ``@``) or p = 2
    inputs (through ``dot``), m = 1 (closed-form gain) or m = 2 (Cholesky
    path), A scaled to a spectral norm r of 0.1..0.95 (less when ‖M‖₂ is
    below 1e-3), and enough random inputs and measurements to pass its
    fixed point. Scaling by the norm,
    not the spectral radius, keeps P bounded: a nilpotent M has radius 0
    (see ``test_nilpotent_model_raises_at_the_same_step_as_the_oracle``)."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    unit = st.floats(-1, 1)
    M = draw(hnp.arrays(float, (n, n), elements=unit))
    A = M * (draw(st.floats(0.1, 0.95)) / max(np.linalg.norm(M, 2), 1e-3))
    Lq = draw(hnp.arrays(float, (n, n), elements=unit))
    Lr = draw(hnp.arrays(float, (m, m), elements=unit))
    C = draw(hnp.arrays(float, (m, n), elements=st.floats(-2, 2)))
    B = draw(hnp.arrays(float, (n, p), elements=unit))
    model = SystemModel(A=A, B=B, C=C,
                        Q=Lq @ Lq.T + 1e-3 * np.eye(n),
                        R=Lr @ Lr.T + 1e-2 * np.eye(m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = [(rng.standard_normal(p), rng.standard_normal(m))
              for _ in range(300)]
    return model, np.eye(n), inputs


@pytest.mark.filterwarnings("ignore:model is not observable")
@settings(max_examples=40, deadline=None)
@given(_stable_models())
def test_frozen_recursion_equals_per_step_oracle_bitwise(case):
    model, P0, inputs = case
    frozen_at, repeat_at = _assert_memoized_chain_matches_oracle(model, P0, inputs)
    # the chain freezes exactly where the oracle's updated P first repeats
    assert frozen_at == repeat_at
    event("froze" if frozen_at else "did not freeze in 300 steps")


def _failing_step(beliefs) -> int:
    """The step whose update raises ``SingularInnovationError``."""
    t = 0
    with pytest.raises(SingularInnovationError):
        for t, _ in enumerate(beliefs, start=1):
            pass
    return t + 1


def test_nilpotent_model_raises_at_the_same_step_as_the_oracle():
    """Outside the domain a chain can run: M nilpotent, scaled as if its
    spectral radius were 1e-3, gives A = 950 M. P grows until the
    innovation covariance is singular. The chain that may freeze and the
    constructor-rebuilt oracle raise at the same step."""
    model = SystemModel(A=950.0 * np.triu(np.ones((3, 3)), 1), B=np.ones((3, 1)),
                        C=np.ones((2, 3)), Q=1e-3 * np.eye(3), R=1e-2 * np.eye(2))
    rng = np.random.default_rng(0)
    inputs = [(rng.standard_normal(1), rng.standard_normal(2)) for _ in range(300)]

    def chain():
        belief = KalmanBelief(x_hat=np.zeros(model.n), P=np.eye(3))
        for u, y in inputs:
            belief, _ = kf_update(kf_predict(belief, model, u), model, y)
            yield belief

    assert _failing_step(chain()) == _failing_step(
        _oracle_chain(model, np.eye(3), inputs)) == 2


def test_marginally_stable_model_never_freezes_and_matches_oracle():
    scn = built_in("sec54", 0)  # the closed loop's plant: P creeps and never repeats
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)
    rng = np.random.default_rng(5)
    inputs = [(rng.standard_normal(1), rng.standard_normal(1))
              for _ in range(1500)]
    assert _assert_memoized_chain_matches_oracle(model, scn.P0, inputs) == (None, None)


def _at_predict(x, P, model, u):
    """``kf_predict``'s expressions written with ``@``: an independent
    reference for the products ``kalman.product`` forms."""
    x = model.A @ x + model.B @ u
    P = model.A @ P @ model.A.T + model.Q
    return x, 0.5 * (P + P.T)


def _at_update(x, P, model, y):
    """``kf_update``'s expressions written with ``@``; returns (x, P, gain)."""
    CP = model.C @ P
    if model.m == 1:
        s = float((CP @ model.C.T + model.R)[0, 0])
        d = math.sqrt(0.5 * (s + s))
        if model.n == 1:
            g = ((CP / d) / d).T
        else:
            r = 1.0 / d
            g = ((CP * r) * r).T
    else:
        S = model.C @ P @ model.C.T + model.R
        L = np.linalg.cholesky(0.5 * (S + S.T))
        g = np.linalg.solve(L.T, np.linalg.solve(L, CP)).T
    x = x + g @ (y - model.C @ x)
    P = (np.eye(model.n) - g @ model.C) @ P
    return x, 0.5 * (P + P.T), g


def _assert_chain_matches_at_reference(model, P0, inputs):
    """kf_predict/kf_update handed on to each other (so free to freeze)
    against the ``@`` reference, bitwise in x, P and the gain."""
    belief = KalmanBelief(x_hat=np.zeros(model.n), P=P0)
    x, P = belief.x_hat, belief.P
    for t, (u, y) in enumerate(inputs, start=1):
        pred = kf_predict(belief, model, u)
        x, P = _at_predict(x, P, model, np.asarray(u, dtype=float))
        assert pred.x_hat.tobytes() == x.tobytes(), t
        assert pred.P.tobytes() == P.tobytes(), t
        belief, gain = kf_update(pred, model, y)
        x, P, g = _at_update(x, P, model, np.asarray(y, dtype=float))
        assert belief.x_hat.tobytes() == x.tobytes(), t
        assert belief.P.tobytes() == P.tobytes(), t
        assert gain.tobytes() == g.tobytes(), t
    return x


@pytest.mark.filterwarnings("ignore:model is not observable")
@settings(max_examples=40, deadline=None)
@given(_stable_models())
def test_kalman_products_equal_the_at_reference_bitwise(case):
    _assert_chain_matches_at_reference(*case)


def test_sec54_kalman_products_equal_the_at_reference_bitwise():
    scn = built_in("sec54", 0)  # never freezes: every step recomputes P and the gain
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)
    rng = np.random.default_rng(11)
    inputs = [(rng.standard_normal(1), rng.standard_normal(1))
              for _ in range(600)]
    _assert_chain_matches_at_reference(model, scn.P0, inputs)


@pytest.mark.parametrize("a", [0.5, -1.0, 0.0, -0.0])
def test_scalar_signed_zero_and_nan_states_equal_the_at_reference(a):
    """Signed zeros and NaN must come out as the reference gives them: at
    n = 1, where every product keeps ``@``, and at n = 2 and 3 with signed
    zeros in C and B, where the symmetrization's contiguous transpose and
    array 1/2 must give the bits of ``0.5 * (P + P.T)``."""
    zeros = [0.0, -0.0]
    inputs = [([u], [y]) for u in zeros for y in zeros] * 3
    inputs += [([-0.0], [np.nan]), ([0.0], [1.0]), ([-0.0], [-0.0])]
    for n in (1, 2, 3):
        A = np.eye(n, k=1)  # a shift, so C's first entry observes every state
        np.fill_diagonal(A, a)
        model = SystemModel(A=A, B=np.array([[-1.0], [-0.0], [0.0]])[:n],
                            C=np.array([[1.0, -0.0, 0.0]])[:, :n],
                            Q=0.01 * np.eye(n), R=[[1.0]])
        x = _assert_chain_matches_at_reference(model, np.eye(n), inputs)
        assert np.isnan(x).all(), n


@st.composite
def _product_operands(draw):
    """``(a, b)`` with contracted dimension 1..5: a matrix or vector times a
    vector or matrix, each C-contiguous, a transpose, or a row view of a
    larger array, with elements that include signed zeros, NaN and
    infinities."""
    k = draw(st.integers(1, 5))
    a_shape = draw(st.sampled_from([(k,), (1, k), (2, k), (3, k), (5, k)]))
    b_shape = draw(st.sampled_from([(k,), (k, 1), (k, 2), (k, 4)]))
    specials = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
    elements = st.one_of(specials, st.floats(-1e3, 1e3), st.floats(width=64))
    return tuple(_layout(draw(hnp.arrays(float, shape, elements=elements)),
                         draw(st.sampled_from(["c", "t", "row"])))
                 for shape in (a_shape, b_shape))


def _layout(arr, kind):
    if kind == "t":  # an F-ordered transpose, as model.A.T
        return np.ascontiguousarray(arr.T).T
    if kind == "row":  # a row of a larger array, as a state row of a table
        big = np.zeros((3,) + arr.shape)
        big[1] = arr
        return big[1, ...]  # a 0-d view, not a scalar, for a 0-d arr
    return arr


@settings(max_examples=1500, deadline=None)
@given(_product_operands(), st.sampled_from(["c", "row"]))
def test_product_bytes_equal_the_at_operator(operands, out_layout):
    """The rule's product for the contracted dimension gives the bytes of
    ``a @ b``, both returned and written into an ``out=`` array that is
    C-contiguous or a row of a larger one, as a plant state row."""
    a, b = operands
    prod = kalman.product(a.shape[-1])
    with np.errstate(all="ignore"):
        want = (a @ b).tobytes()
        assert prod(a, b).tobytes() == want
        out = _layout(np.full(np.shape(a @ b), 7.0), out_layout)
        assert prod(a, b, out=out).tobytes() == want
    assert out.tobytes() == want


@st.composite
def _model_and_operands(draw):
    """A model with n, m, p = 1..3 and finite matrices that hold signed
    zeros, and right operands of every product of the recursion with
    signed zeros, NaN and infinities."""
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10))
    specials = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
    elements = st.one_of(specials, st.floats(-1e3, 1e3))
    A, B, C = (draw(hnp.arrays(float, shape, elements=finite))
               for shape in ((n, n), (n, p), (m, n)))
    model = SystemModel(A=A, B=B, C=C, Q=np.eye(n), R=np.eye(m))
    ops = {name: draw(hnp.arrays(float, shape, elements=elements))
           for name, shape in (("x", n), ("u", p), ("P", (n, n)),
                               ("CP", (m, n)), ("g", (n, m)), ("r", m))}
    return model, ops


@pytest.mark.filterwarnings("ignore:model is not observable")
@settings(max_examples=200, deadline=None)
@given(_model_and_operands())
def test_model_products_equal_the_at_operator(case):
    """Each of the three products a model resolves once, by n, m and p,
    gives the bytes of ``@`` on every operand of the recursion."""
    model, o = case
    A, B, C = model.A, model.B, model.C
    by_n, by_m, by_p = model._by_n, model._by_m, model._by_p
    with np.errstate(all="ignore"):
        pairs = [(by_n(A, o["x"]), A @ o["x"]), (by_n(A, o["P"]), A @ o["P"]),
                 (by_n(o["P"], model._AT), o["P"] @ A.T),
                 (by_p(B, o["u"]), B @ o["u"]),
                 (by_n(C, o["x"]), C @ o["x"]), (by_n(C, o["P"]), C @ o["P"]),
                 (by_n(o["CP"], model._CT), o["CP"] @ C.T),
                 (by_m(o["g"], o["r"]), o["g"] @ o["r"]),
                 (by_m(o["g"], C), o["g"] @ C),
                 (by_n(o["P"], o["P"]), o["P"] @ o["P"])]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def _frozen_scalar_chain(model, steps=200):
    belief = KalmanBelief(x_hat=[0.0], P=[[1.0]])
    for _ in range(steps):
        belief, gain = kf_update(kf_predict(belief, model, [0.0]), model, [1.0])
    return belief, gain


def test_frozen_arrays_are_read_only_and_repeat():
    model = _scalar_model(a=0.5, q=0.1, r=1.0)
    belief, gain = _frozen_scalar_chain(model)
    assert belief._fixed is not None
    pred = kf_predict(belief, model, [0.0])
    upd, g = kf_update(pred, model, [1.0])
    assert pred.P is belief._fixed.P_pred and upd.P is belief.P and g is gain
    for a in (pred.P, upd.P, g):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):  # built by its dict
        upd.P = pred.P


def test_frozen_belief_recomputes_under_another_model_instance():
    model = _scalar_model(a=0.5, q=0.1, r=1.0)
    belief, _ = _frozen_scalar_chain(model)
    for other in (_scalar_model(a=0.5, q=0.1, r=1.0),   # equal, not the same
                  _scalar_model(a=0.5, q=0.4, r=1.0)):  # a different Q
        pred = kf_predict(belief, other, [0.0])
        upd, g = kf_update(pred, other, [1.0])
        ref = kf_predict(KalmanBelief(belief.x_hat, belief.P, belief.t), other, [0.0])
        ref_upd, ref_g = kf_update(ref, other, [1.0])
        assert pred._fixed is None  # recomputed, so it may freeze anew
        assert upd._fixed is None or upd._fixed.model is other
        assert pred.P.tobytes() == ref.P.tobytes()
        assert upd.P.tobytes() == ref_upd.P.tobytes()
        assert g.tobytes() == ref_g.tobytes()
        assert upd.x_hat.tobytes() == ref_upd.x_hat.tobytes()
    # the oracle's P under the larger Q is not the frozen one: it recomputed
    assert pred.P[0, 0] != belief._fixed.P_pred[0, 0]


def test_model_matrices_are_read_only_copies():
    """A frozen recursion is keyed by the model object, so the model's
    matrices must not change under it."""
    A = np.array([[0.5]])
    model = SystemModel(A=A, B=[1.0], C=[[1.0]], Q=[[0.1]], R=[[1.0]])
    A[0, 0] = 0.9
    assert model.A[0, 0] == 0.5
    for name in ("A", "B", "C", "Q", "R"):
        with pytest.raises(ValueError):
            getattr(model, name)[0, 0] = 0.0


def test_blas_products_fuse_multiply_adds():
    """The platform that the recorded output bits assume: NumPy's OpenBLAS
    computes the plant's and the Kalman tick's ``ndarray.dot`` with fused
    multiply-adds, as its x86-64 kernels with FMA do. Without FMA the middle
    row of this product rounds to 0.8, and every estimation and control CSV
    moves, so the golden digests and the benchmark's bitwise comparison
    fail; this test names that cause first."""
    A = np.array([[0.9, 0.2, 0.5], [0.3, 0.1, 0.7], [0.1, 0.3, 0.5]])
    x = np.array([0.5, 0.2, 0.9])
    got = kalman.product(3)(A, x).tolist()
    assert got == [0.94, 0.7999999999999999, 0.56], (
        f"A.dot(x) = {got}: this BLAS kernel does not fuse multiply-adds, so "
        "estimation and control outputs will not have their recorded bits "
        "(see README, Platform)")
