"""Estimator integration: hand-checked steps, consistency, KF equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasf.design import SeparationSpec, design_for, design_iir
from pasf.errors import InvalidArgumentError
from pasf.kalman import KalmanBelief, SystemModel, kf_predict, kf_update
from pasf.kfpasf import KfPasfState, zero_histories
from pasf.runtime import PasfState, periodic_warm_history
from pasf.scenario_io import built_in
from pasf.values import replace


def _scalar_setup(P0=1.0):
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(rho_tilde=1.0, period=2, sampling_time=0.5)  # r = 1
    p, a = design_iir(spec, 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), [[P0]])
    return model, p, a, state


def test_zero_init_first_prediction_is_bu():
    model = SystemModel(A=[[0.5]], B=[[2.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(1.0, 2, 0.5)
    p, a = design_iir(spec, 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), [[0.0]])
    rec = state.step([3.0], [0.0])
    assert rec.x_pred[0] == pytest.approx(2.0 * 3.0, abs=1e-15)


def test_wrong_history_depth_rejected():
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(1.0, 2, 0.5)
    p, a = design_iir(spec, 1)
    short = np.zeros((1, 1))  # needs N*period = 2 entries
    with pytest.raises(InvalidArgumentError):
        KfPasfState(model, p, a, (short, short, short), [[0.0]])
    # the runtime separator injects through the same check
    with pytest.raises(InvalidArgumentError):
        PasfState(p, a, history=(short, short, short))
    # only an output history may be a number
    with pytest.raises(InvalidArgumentError, match="input history must hold"):
        PasfState(p, a, history=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_history_rejected(which, bad):
    """A warm history holding a NaN or an infinity is refused, naming the
    history, by the estimator's initial expectations, the runtime's
    ``history`` and ``SeparatorCore.inject``, which keeps its buffers; it
    would otherwise give non-finite outputs for a stretch of samples."""
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    p, a = design_iir(SeparationSpec(1.0, 2, 0.5), 1)
    hists = [np.full((2, 1), 1.0 + i) for i in range(3)]
    hists[which][1, 0] = bad
    forms = [hists]
    if which:  # an output history given as a multiple of the input's
        forms.append([hists[0], 2.0, 3.0])
        forms[1][which] = bad
    message = f"{('input', 'periodic', 'aperiodic')[which]} history must be finite"
    state = PasfState(p, a, history=np.ones((3, 2)))
    for form in forms:
        with pytest.raises(InvalidArgumentError, match=message):
            KfPasfState(model, p, a, form, [[0.0]])
        with pytest.raises(InvalidArgumentError, match=message):
            PasfState(p, a, history=form)
        with pytest.raises(InvalidArgumentError, match=message):
            state.core.inject(*form)
    assert np.array_equal(state.core._hist, np.ones((3, 2, 1)))
    assert state.step(1.0) == PasfState(p, a, history=np.ones((3, 2))).step(1.0)


def test_explicit_histories_accepted_verbatim():
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(1.0, 2, 0.5)
    p, a = design_iir(spec, 1)
    h_pa = np.array([[5.0], [7.0]])
    h_p = np.array([[4.0], [6.0]])
    h_a = np.array([[1.0], [1.0]])
    state = KfPasfState(model, p, a, (h_pa, h_p, h_a), [[0.0]])
    # belief starts from the newest history entry
    assert state.belief.x_hat[0] == 7.0
    # theta at t=1 uses the lag-2 entries (times -1), i.e. the oldest rows
    tp, ta = state.core.theta()
    exp_tp = -p.feedback[0] * 4.0 + p.feedforward[1] * 5.0
    exp_ta = -a.feedback[0] * 1.0 + a.feedforward[1] * 5.0
    # a one-state core reads its theta row as two floats
    assert type(tp) is float and type(ta) is float
    assert tp == pytest.approx(exp_tp, abs=1e-15)
    assert ta == pytest.approx(exp_ta, abs=1e-15)


def test_zero_histories_are_a_zero_input_and_two_zero_multiples():
    """A zero start holds one zero history: the outputs' are 0.0 times it,
    and +0.0 * +0.0 is +0.0, so every ring holds the +0.0 bytes that three
    zero arrays gave."""
    model = SystemModel(A=np.eye(3) * 0.5, B=[0.0, 0.0, 1.0], C=np.eye(3),
                        Q=np.eye(3), R=np.eye(3))
    p, a = design_iir(SeparationSpec(1.0, 5, 0.1), 2)
    z, p_hist, a_hist = zero_histories(model, 2, 5)
    assert (p_hist, a_hist) == (0.0, 0.0) and z.shape == (10, 3)
    state = KfPasfState(model, p, a, (z, p_hist, a_hist), np.eye(3))
    assert state.core._hist.tobytes() == bytes(3 * 10 * 3 * 8)


def test_hand_computed_single_step():
    model, p, a, state = _scalar_setup(P0=1.0)
    rec = state.step([1.0], [1.0])
    # prediction: x(1|0) = A*0 + B*1 = 1
    assert rec.x_pred[0] == pytest.approx(1.0, abs=1e-15)
    # gain: P0/(P0 + 1) = 0.5; innovation zero so update stays 1
    assert rec.gain[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert rec.x_upd[0] == pytest.approx(1.0, abs=1e-15)
    # separations reduce to the diagonal feedthrough terms (zero histories)
    assert rec.xp_upd[0] == pytest.approx(p.feedforward[0], abs=1e-15)
    assert rec.xa_upd[0] == pytest.approx(a.feedforward[0], abs=1e-15)
    # the first-order pair is complementary: the split sums to the estimate
    assert rec.xp_upd[0] + rec.xa_upd[0] == pytest.approx(1.0, abs=1e-15)


def test_noise_free_zero_stays_zero():
    model, p, a, state = _scalar_setup(P0=0.0)
    for _ in range(50):
        rec = state.step([0.0], [0.0])
        assert rec.x_upd[0] == 0.0
        assert rec.xp_upd[0] == 0.0
        assert rec.xa_upd[0] == 0.0


def test_split_consistency_against_reevaluation():
    """Recompute theta terms from the recorded histories with an independent
    loop and check both splits every step."""
    rng = np.random.default_rng(21)
    period, order = 5, 2
    model = SystemModel(
        A=[[0.9, 0.1], [0.0, 0.8]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
        Q=np.diag([1e-4, 1e-4]), R=[[0.1]],
    )
    spec = SeparationSpec(0.8, period, 0.1)
    p, a = design_iir(spec, order)
    state = KfPasfState(model, p, a, zero_histories(model, order, period),
                        np.eye(2))
    depth = order * period
    hist_pa = [np.zeros(2)] * depth
    hist_p = [np.zeros(2)] * depth
    hist_a = [np.zeros(2)] * depth
    for _ in range(120):
        u = rng.standard_normal(1)
        y = rng.standard_normal(1)
        rec = state.step(u, y)
        theta_p = np.zeros(2)
        theta_a = np.zeros(2)
        for i in range(1, order + 1):
            theta_p += (-p.feedback[i - 1] * hist_p[-i * period]
                        + p.feedforward[i] * hist_pa[-i * period])
            theta_a += (-a.feedback[i - 1] * hist_a[-i * period]
                        + a.feedforward[i] * hist_pa[-i * period])
        assert np.allclose(rec.xp_upd, theta_p + p.feedforward[0] * rec.x_upd,
                           atol=1e-12)
        assert np.allclose(rec.xa_upd, theta_a + a.feedforward[0] * rec.x_upd,
                           atol=1e-12)
        hist_pa.append(rec.x_upd.copy())
        hist_p.append(rec.xp_upd.copy())
        hist_a.append(rec.xa_upd.copy())


def test_covariance_matches_plain_kalman_bitwise():
    rng = np.random.default_rng(7)
    model = SystemModel(
        A=[[0.9, 0.1, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.7]],
        B=[0.0, 0.0, 1.0], C=[[1.0, 0.0, 0.0]],
        Q=np.diag([1e-4, 1e-4, 1e-4]), R=[[0.1]],
    )
    spec = SeparationSpec(0.5, 5, 0.1)
    p, a = design_iir(spec, 2)
    state = KfPasfState(model, p, a, zero_histories(model, 2, 5), np.eye(3))
    belief = KalmanBelief(x_hat=np.zeros(3), P=np.eye(3))
    for _ in range(300):
        u = rng.standard_normal(1)
        y = rng.standard_normal(1)
        rec = state.step(u, y)
        pred = kf_predict(belief, model, u)
        belief, gain = kf_update(pred, model, y)
        assert np.array_equal(rec.P, belief.P)
        assert np.array_equal(rec.x_upd, belief.x_hat)
        assert np.array_equal(rec.gain, gain)


def test_complementary_split_sums_to_estimate_along_trajectory():
    rng = np.random.default_rng(3)
    model = SystemModel(A=[[0.95]], B=[[1.0]], C=[[1.0]], Q=[[1e-4]], R=[[0.5]])
    spec = SeparationSpec(0.5, 4, 0.25)  # first-order pair is complementary
    p, a = design_iir(spec, 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 4), [[1.0]])
    for _ in range(200):
        rec = state.step(rng.standard_normal(1), rng.standard_normal(1))
        assert rec.xp_upd[0] + rec.xa_upd[0] == pytest.approx(
            rec.x_upd[0], abs=1e-12)


def test_reconfigure_keeps_histories():
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(1.0, 2, 0.5)
    p, a = design_iir(spec, 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), [[0.0]])
    state.step([1.0], [1.0])
    buf_before = state.core.p_buf.copy()
    state.reconfigure(SeparationSpec(2.0, 2, 0.5))
    assert np.array_equal(state.core.p_buf, buf_before)
    assert state.bank.sp != p.feedforward[0]


@pytest.mark.parametrize("field", ["rho_tilde", "sampling_time"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_reconfigure_rejects_non_finite_spec_and_keeps_bank(field, value):
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])
    spec = SeparationSpec(1.0, 2, 0.5)
    p, a = design_iir(spec, 1)
    state = KfPasfState(model, p, a, zero_histories(model, 1, 2), [[1.0]])
    state.step([1.0], [1.0])
    bank = state.bank
    with pytest.raises(InvalidArgumentError):
        state.reconfigure(replace(spec, **{field: value}),
                          allow_out_of_band=True)
    assert state.bank is bank
    assert np.all(np.isfinite(state.step([1.0], [1.0]).xp_upd))


def test_scalar_measurement_step_runs_without_dense_linalg(monkeypatch):
    """The m = 1 estimator step needs no eigvalsh, Cholesky or solve; a
    fallback to the general innovation path raises here."""
    scn = built_in("sec54", 0)
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)
    p, a = design_iir(SeparationSpec(10.0, scn.period, scn.sampling_time), 1,
                      allow_out_of_band=True)
    state = KfPasfState(model, p, a, zero_histories(model, 1, scn.period), scn.P0)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense linear algebra on the scalar path")

    for name in ("eigvalsh", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rng = np.random.default_rng(54)
    for u, y in rng.standard_normal((2000, 2)):
        rec = state.step([u], [y])
    assert rec.t == 2000
    assert np.all(np.isfinite(rec.x_upd))


@pytest.mark.parametrize("name, froze", [("sec51", True), ("sec54", False)])
def test_gain_frozen_at_is_the_oracles_first_repeating_step(name, froze):
    scn = built_in(name, 0)
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)
    p, a = design_iir(SeparationSpec(10.0, scn.period, scn.sampling_time), 1,
                      allow_out_of_band=True)
    state = KfPasfState(model, p, a, zero_histories(model, 1, scn.period), scn.P0)
    rng = np.random.default_rng(11)
    oracle = KalmanBelief(x_hat=np.zeros(3), P=scn.P0)
    repeat_at = frozen_gain = None
    for t in range(1, 601):
        u, y = rng.standard_normal(1), rng.standard_normal(1)
        rec = state.step(u, y)
        pred = kf_predict(KalmanBelief(oracle.x_hat, oracle.P, t - 1), model, u)
        P_prev = oracle.P
        oracle, gain = kf_update(
            KalmanBelief(pred.x_hat, pred.P, t, "predicted"), model, y)
        if repeat_at is None and oracle.P.tobytes() == P_prev.tobytes():
            repeat_at, frozen_gain = t, gain
        assert state.gain_frozen_at == repeat_at, t
        if frozen_gain is not None:  # the gain of that step holds for good
            assert gain.tobytes() == frozen_gain.tobytes() == rec.gain.tobytes()
    assert (repeat_at is not None) == froze


@pytest.mark.parametrize("P0", [
    np.eye(2),                        # not n x n
    [1.0, 1.0, 1.0],
    None,
    [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # asymmetric
    -np.eye(3),                       # indefinite
    np.diag([1.0, -1e-3, 1.0]),
])
def test_bad_initial_covariance_is_a_typed_error_at_construction(P0):
    model = SystemModel(A=np.eye(3) * 0.5, B=[0.0, 0.0, 1.0], C=np.eye(3),
                        Q=np.eye(3), R=np.eye(3))
    p, a = design_iir(SeparationSpec(1.0, 2, 0.5), 1)
    with pytest.raises(InvalidArgumentError, match="P0"):
        KfPasfState(model, p, a, zero_histories(model, 1, 2), P0)


_MODELS = {
    1: SystemModel(A=[[0.95]], B=[[1.0]], C=[[1.0]], Q=[[1e-3]], R=[[0.2]]),
    3: SystemModel(A=[[0.9, 0.1, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.7]],
                   B=[0.0, 0.0, 1.0], C=[[1.0, 0.0, 0.0]],
                   Q=np.diag([1e-4, 2e-4, 3e-4]), R=[[0.1]]),
}


@pytest.mark.parametrize("case", ["late", "reconfigure", "warm"])
@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from([1, 3]), period=st.integers(1, 12),
       filt=st.sampled_from([("iir", 1), ("iir", 2), ("iir", 3), ("fir", 4)]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_estimator_split_is_a_separator_run_over_its_updates(
        case, n, period, filt, seed, data):
    """Every record's ``xp_upd`` and ``xa_upd`` equal, byte for byte, the
    outputs of a ``PasfState`` with the same pair, ``dims`` = n and the
    same history, run over the updated estimates with the same switch:
    more than three periods of steps, a mid-period reconfiguration or a
    periodic warm start change nothing. One state steps the separator's
    float path, three its n-vector path."""
    realization, order = filt
    model = _MODELS[n]
    T = 0.01
    spec = SeparationSpec(0.3 / (period * T), period, T)  # lifted rho 0.3
    p, a = design_for(realization, spec, order)
    if case == "warm":
        rng = np.random.default_rng(seed)
        tail = rng.standard_normal((order * period, n))
        hist = periodic_warm_history(p, a, tail)
    else:
        hist = zero_histories(model, order, period)
    state = KfPasfState(model, p, a, hist, np.eye(n))
    steps = 4 * period + data.draw(st.integers(0, period), label="extra")
    switches = []
    if case == "reconfigure":  # off a period boundary wherever one exists
        offset = data.draw(st.integers(1, max(1, period - 1)), label="offset")
        at = data.draw(st.integers(0, 2), label="periods") * period + offset
        switches = [(at, replace(spec, rho_tilde=spec.rho_tilde * 1.5))]
    rng = np.random.default_rng(seed)
    first_bank = state.bank
    records = []
    for t in range(steps):
        if switches and t == switches[0][0]:
            state.reconfigure(switches[0][1])
        records.append(state.step(rng.standard_normal(1), rng.standard_normal(1)))
    assert (state.bank is not first_bank) == (case == "reconfigure")
    x_upd = np.array([rec.x_upd for rec in records])
    out_p, out_a = PasfState(p, a, dims=n, history=hist).run(
        x_upd[:, 0] if n == 1 else x_upd, switches)
    for rec, want_p, want_a in zip(records, out_p, out_a):
        assert rec.xp_upd.tobytes() == np.atleast_1d(want_p).tobytes(), rec.t
        assert rec.xa_upd.tobytes() == np.atleast_1d(want_a).tobytes(), rec.t
