import dataclasses
import functools
import warnings

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import fp_core, irs_opt, model, pipeline, tx_opt
from cfirs.channel import ChannelSet
from cfirs.config import desk_config, full_config
from cfirs.pipeline import SchemeSpec

from conftest import build_instance, small_config


def test_scheme_labels():
    assert SchemeSpec(solver="aso").label == "ASO"
    assert SchemeSpec(solver="discrete", levels=4).label == "DISCRETE-M4"
    assert SchemeSpec(solver="aso", csi_error_rho=0.1).label == "ASO rho=0.1"
    assert SchemeSpec(solver="none", label="no reflectors").label == "no reflectors"


def test_scheme_rejects_bad_solver():
    with pytest.raises(ValueError):
        SchemeSpec(solver="genie")
    with pytest.raises(ValueError):
        SchemeSpec(solver="discrete", levels=1)
    with pytest.raises(ValueError):
        SchemeSpec(solver="aso", csi_error_rho=-0.1)
    # Only the discrete sweep reads levels; elsewhere they would be ignored
    # yet change the label and the generator key.
    with pytest.raises(ValueError, match="levels"):
        SchemeSpec(solver="aso", levels=4)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), float("-inf")])
def test_scheme_rejects_non_finite_csi_error(rho):
    # NaN would otherwise be labelled plain ASO, share the unperturbed
    # scheme's generator and fail later inside the rate.
    with pytest.raises(ValueError, match="csi_error_rho must be finite"):
        SchemeSpec(solver="aso", csi_error_rho=rho)


@pytest.mark.parametrize("n_starts", [0, -3])
def test_joint_optimize_rejects_bad_start_count(n_starts):
    cfg, ch, _, _, _ = build_instance(0, l=1, k=1, r=0, m_b=4, m_u=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_starts must be >= 1"):
        pipeline.joint_optimize(ch, cfg, SchemeSpec(solver="none"), rng, n_starts=n_starts)
    # It fails before any draw.
    assert rng.random() == np.random.default_rng(0).random()


def test_single_user_single_bs_reaches_matched_filter_rate():
    # without reflectors and with one receive antenna, the optimum is maximum
    # ratio transmission at full power: rate = log(1 + p ||h||^2 / s2)
    cfg, ch, _, _, _ = build_instance(0, l=1, k=1, r=0, m_b=4, m_u=1)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="none"), np.random.default_rng(0)
    )
    h = ch.direct[0, 0][:, 0]
    expected = np.log(1 + cfg.p_max[0] * np.linalg.norm(h) ** 2 / cfg.sigma2)
    assert trace.final_sum_rate_true == pytest.approx(expected, rel=1e-6)


def test_random_scheme_skips_phase_step():
    cfg, ch, _, _, _ = build_instance(1)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="random"), np.random.default_rng(1)
    )
    assert all(s.phase_work == 0 and not s.phase_refused for s in trace.steps)
    rates = np.asarray(trace.sum_rate)
    assert (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all()
    theta.validate()


def test_none_scheme_returns_empty_phases():
    cfg, ch, _, _, _ = build_instance(2)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="none"), np.random.default_rng(2)
    )
    assert theta.theta.size == 0
    assert trace.final_sum_rate_true == pytest.approx(
        model.sum_rate(ch, w.w, None, cfg.sigma2), rel=1e-12
    )


def test_joint_optimize_deterministic():
    cfg, ch, _, _, _ = build_instance(3)
    runs = []
    for _ in range(2):
        w, theta, trace = pipeline.joint_optimize(
            ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(77)
        )
        runs.append((w.w.copy(), theta.theta.copy(), list(trace.sum_rate)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


@pytest.mark.parametrize("solver", ["aso", "qcr", "sdr", "discrete"])
def test_joint_optimize_monotone_and_feasible(solver):
    cfg, ch, _, _, _ = build_instance(4, r=2, n=4, n_h=2, n_v=2)
    scheme = SchemeSpec(solver=solver, levels=4 if solver == "discrete" else 0)
    w, theta, trace = pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(4))
    rates = np.asarray(trace.sum_rate)
    assert (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all()
    w.validate(cfg.p_max)
    theta.validate(discrete_levels=4 if solver == "discrete" else 0)


# Numerical edge cases at desk scale: the scenario change, and the error the
# draw must raise (None: every scheme must return a solve that passes the
# checks).
EDGE_CASES = {
    "sigma2_1e-16": (dict(sigma2=1e-16), None),
    "p_max_1e-8": (dict(p_max=(1e-8,)), None),
    "p_max_1e4": (dict(p_max=(1e4,)), None),
    "alpha_1e-3": (dict(alpha=1e-3), None),
    "ue_at_irs": ({}, "distance must be positive"),
}
ALL_SCHEMES = [SchemeSpec(solver=s) for s in ("aso", "qcr", "sdr", "random", "none")] + [
    SchemeSpec(solver="discrete", levels=4)]


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_fails_loudly_or_works(case):
    over, error = EDGE_CASES[case]
    cfg = desk_config(max_outer=4, **over)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
        if case == "ue_at_irs":
            ue = np.vstack([geo.irs_positions[:1], geo.ue_positions[1:]])
            geo = dataclasses.replace(geo, ue_positions=ue)
        with warnings.catch_warnings():
            # A silent overflow or NaN in numpy is not loud enough.
            warnings.simplefilter("error", RuntimeWarning)
            if error is not None:
                with pytest.raises(ValueError, match=error):
                    chan.sample_channels(cfg, geo, chan.sample_angles(cfg, rng), rng)
                continue
            ch = chan.sample_channels(cfg, geo, chan.sample_angles(cfg, rng), rng)
            for scheme in ALL_SCHEMES:
                w, theta, trace = pipeline.joint_optimize(ch, cfg, scheme, rng)
                # The output checks of perfbench's check_solve.
                w.validate(cfg.p_max)
                theta.validate(scheme.levels)
                rates = np.asarray(trace.sum_rate)
                assert (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all(), scheme.label
                assert np.isfinite(trace.final_sum_rate_true)
                # The precoder step's own bound, 10x tighter than validate's
                # relative tolerance.
                assert (w.per_bs_power() <= np.asarray(cfg.p_max) * (1.0 + 1e-9)).all()


def test_power_check_accepts_what_the_precoder_step_returns():
    # One BS ends 3.5e-10 relative over its 1e4 W budget: within the W
    # step's relative 1e-9, and 3.5e-6 W over in absolute terms.
    cfg = desk_config(max_outer=4, p_max=(1e4,))
    rng = np.random.default_rng(0)
    geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
    ch = chan.sample_channels(cfg, geo, chan.sample_angles(cfg, rng), rng)
    w, _, _ = pipeline.joint_optimize(ch, cfg, SchemeSpec(solver="discrete", levels=4), rng)
    assert (w.per_bs_power() - 1e4).max() > 1e-6
    w.validate(cfg.p_max)


def test_trace_bounded_by_capacity_estimate():
    cfg, ch, _, _, _ = build_instance(5)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(5)
    )
    h = model.effective_channel(ch, theta.theta)
    hs = h.transpose(1, 0, 2)
    hnorm2 = max(np.linalg.norm(hs[k], 2) ** 2 for k in range(cfg.k))
    bound = cfg.k * cfg.m_u * np.log(1 + sum(cfg.p_max) * hnorm2 / cfg.sigma2)
    assert max(trace.sum_rate) <= bound


def test_csi_error_optimizes_on_perturbed_channels():
    cfg, ch, _, _, _ = build_instance(7)
    clean = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso"), np.random.default_rng(9)
    )[2]
    noisy = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="aso", csi_error_rho=0.3), np.random.default_rng(9)
    )[2]
    # same generator stream: the only difference is the perturbation radius
    assert noisy.final_sum_rate_true <= clean.final_sum_rate_true + 1e-9


def test_monte_carlo_single_seed_matches_direct_run():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    scheme = SchemeSpec(solver="aso")
    rows = pipeline.monte_carlo(cfg, geo, [scheme], n_seeds=1, master_seed=5)
    assert len(rows) == 1
    channels = pipeline.realize_channels(cfg, geo, master_seed=5, seed_index=0)
    rng = np.random.default_rng(pipeline.scheme_seed_key(5, 0, scheme.label))
    _, _, trace = pipeline.joint_optimize(channels, cfg, scheme, rng)
    assert rows[0]["sum_rate_bits"] == pytest.approx(trace.final_sum_rate_true / np.log(2.0),
                                                     rel=1e-12)
    assert rows[0]["iterations"] == trace.iterations


def test_monte_carlo_rows_are_paired_by_seed():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    schemes = [SchemeSpec(solver="aso"), SchemeSpec(solver="random"), SchemeSpec(solver="none")]
    rows = pipeline.monte_carlo(cfg, geo, schemes, n_seeds=3, master_seed=1)
    assert len(rows) == 9
    seeds = {r["seed"] for r in rows}
    assert seeds == {0, 1, 2}
    for s in seeds:
        labels = [r["scheme"] for r in rows if r["seed"] == s]
        assert sorted(labels) == sorted(x.label for x in schemes)


def test_adding_scheme_leaves_other_draws_unchanged():
    cfg = small_config()
    geo = chan.default_geometry(cfg)
    base = [SchemeSpec(solver="aso")]
    more = [SchemeSpec(solver="random"), SchemeSpec(solver="aso")]
    rows_a = pipeline.monte_carlo(cfg, geo, base, n_seeds=2, master_seed=3)
    rows_b = pipeline.monte_carlo(cfg, geo, more, n_seeds=2, master_seed=3)
    vals_a = {(r["scheme"], r["seed"]): r["sum_rate_bits"] for r in rows_a}
    vals_b = {(r["scheme"], r["seed"]): r["sum_rate_bits"] for r in rows_b}
    for key, val in vals_a.items():
        assert vals_b[key] == pytest.approx(val, rel=1e-12)


def test_aggregate_mean_and_stderr():
    rows = [
        {"scheme": "A", "sum_rate_bits": 1.0},
        {"scheme": "A", "sum_rate_bits": 3.0},
        {"scheme": "B", "sum_rate_bits": 5.0},
    ]
    agg = pipeline.aggregate(rows)
    assert agg["A"]["mean"] == pytest.approx(2.0)
    assert agg["A"]["stderr"] == pytest.approx(np.std([1, 3], ddof=1) / np.sqrt(2))
    assert agg["B"]["count"] == 1
    assert agg["B"]["stderr"] == 0.0


# ---- one evaluation of each quantity per outer iteration ----

def _reference_once(channels, opt, config, scheme, rng):
    """The outer loop as a sequence of per-quantity calls, each of which
    recomputes the link matrices (and the effective channel) from (W, theta)
    on its own: sinr, the MMSE filters, optimize_w, build_cmcqp and the phase step,
    effective_channel, sum_rate. After a step of an extrapolating solver that
    moved the phases, the extrapolated phases replace them when their rate is
    strictly higher."""
    theta = pipeline._init_theta(config, scheme, rng)
    row = pipeline.PHASE_STEPS.get(scheme.solver) if theta is not None else None
    beta = 0.5
    h = model.effective_channel(opt, theta)
    w = model.matched_filter_init(h, config.p_max)
    start_rate = rate = model.sum_rate(opt, w, theta, config.sigma2)
    steps, converged = [], False
    lam = None
    for _ in range(config.max_outer):
        u = model.sinr(h, w, config.sigma2)
        y = model.mmse_filters(model.link_state(h, w, config.sigma2))
        aux = fp_core.AuxState(u=u, y=y)
        w, lam, winfo = tx_opt.optimize_w(h, aux, config, lam=lam, w_prev=w)
        work, refused, bound_open = 0, False, False
        prev = theta
        if row is not None:
            data = irs_opt.build_cmcqp(opt, w, aux)
            theta, work, refused, bound_open = pipeline._phase_step(
                scheme, theta, data, config, rng)
            h = model.effective_channel(opt, theta)
        new_rate = model.sum_rate(opt, w, theta, config.sigma2)
        kept = False
        if row is not None and row.extrapolates and np.any(theta != prev):
            cand = theta * np.exp(1j * beta * np.angle(theta * np.conj(prev)))
            cand_rate = model.sum_rate(opt, w, cand, config.sigma2)
            kept = cand_rate > new_rate
            if kept:
                theta, new_rate = cand, cand_rate
                h = model.effective_channel(opt, theta)
                beta = min(3.0, 1.5 * beta)
            else:
                beta = max(0.1, 0.5 * beta)
        # Timings are not compared: elapsed and stage are left at zero.
        steps.append(pipeline.Step(new_rate, 0.0, (0.0,) * 4, winfo["iterations"],
                                   winfo["converged"], work, refused, kept, bound_open))
        if new_rate != 0 and abs(new_rate - rate) / abs(new_rate) < config.eps3:
            converged = True
            break
        rate = new_rate
    final = model.sum_rate(channels, w, theta, config.sigma2)
    return w, theta, pipeline.RunTrace(start_rate, tuple(steps), converged, final)


def _reference_joint(channels, config, scheme, rng, n_starts=1):
    opt_channels = chan.apply_csi_error(channels, scheme.csi_error_rho, rng)
    best = None
    for _ in range(n_starts):
        w, theta, trace = _reference_once(channels, opt_channels, config, scheme, rng)
        if best is None or trace.sum_rate[-1] > best[2].sum_rate[-1]:
            best = (w, theta, trace)
    return best


_SMALL = dict(r=2, n=4, n_h=2, n_v=2)
_LOOP_CASES = {
    "aso": (SchemeSpec(solver="aso"), _SMALL, 1),
    "discrete": (SchemeSpec(solver="discrete", levels=4), _SMALL, 1),
    "qcr": (SchemeSpec(solver="qcr"), _SMALL, 1),
    "random": (SchemeSpec(solver="random"), _SMALL, 1),
    "none": (SchemeSpec(solver="none"), _SMALL, 1),
    "sdr-tiny": (SchemeSpec(solver="sdr"), dict(n=2, n_h=2, n_v=1, max_outer=4), 1),
    "aso-csi-error": (SchemeSpec(solver="aso", csi_error_rho=0.2), _SMALL, 1),
    "qcr-two-starts": (SchemeSpec(solver="qcr"), _SMALL, 2),
}


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_loop_matches_per_quantity_reference(case):
    scheme, over, n_starts = _LOOP_CASES[case]
    cfg, ch, _, _, _ = build_instance(8, **over)
    w, theta, trace = pipeline.joint_optimize(
        ch, cfg, scheme, np.random.default_rng(8), n_starts=n_starts)
    ref_w, ref_theta, ref = _reference_joint(
        ch, cfg, scheme, np.random.default_rng(8), n_starts=n_starts)
    assert trace.iterations > 1
    # Every field of every step but the timings, exactly.
    assert [s._replace(elapsed=0.0, stage=(0.0,) * 4) for s in trace.steps] == list(ref.steps)
    for name in ("start_rate", "sum_rate", "iterations", "converged", "final_sum_rate_true"):
        assert getattr(trace, name) == getattr(ref, name), name
    np.testing.assert_array_equal(w.w, ref_w)
    ref_theta = ref_theta if ref_theta is not None else np.zeros(0, complex)
    np.testing.assert_array_equal(theta.theta, ref_theta)


@pytest.mark.parametrize("solver", ["aso", "qcr", "discrete", "random", "none"])
def test_loop_evaluates_channel_and_link_state_once(solver, monkeypatch):
    # Per start: the effective channel at the initial phases, after every
    # phase step and on the true channels at the end; the link state at the
    # start, after every iteration and for the final rate. Each attempted
    # extrapolation (ASO or QCR, after a step that moved the phases) adds one
    # channel and one link state.
    events, starts = [], []
    real_channel, real_links = model.effective_channel, model.link_matrices
    real_step, real_once = pipeline._phase_step, pipeline._optimize_once

    def channel_spy(channels, theta):
        events.append(("channel", None if theta is None else np.array(theta), False))
        return real_channel(channels, theta)

    def links_spy(h, w):
        events.append(("links", None, False))
        return real_links(h, w)

    def step_spy(scheme, theta, data, config, rng):
        out = real_step(scheme, theta, data, config, rng)
        events.append(("step", np.array(theta), not np.array_equal(out[0], theta)))
        return out

    def once_spy(*args):
        first = len(events)
        out = real_once(*args)
        starts.append((events[first:], out[2]))
        return out

    monkeypatch.setattr(model, "effective_channel", channel_spy)
    monkeypatch.setattr(model, "link_matrices", links_spy)
    monkeypatch.setattr(pipeline, "_phase_step", step_spy)
    monkeypatch.setattr(pipeline, "_optimize_once", once_spy)
    cfg, ch, _, _, _ = build_instance(9, **_SMALL)
    scheme = SchemeSpec(solver=solver, levels=4 if solver == "discrete" else 0)
    pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(9), n_starts=2)

    assert len(starts) == 2
    for calls, trace in starts:
        kinds = [kind for kind, _, _ in calls]
        steps = kinds.count("step")
        row = pipeline.PHASE_STEPS.get(solver)
        assert steps == (trace.iterations if row else 0)
        extrapolates = bool(row and row.extrapolates)
        tried = [moved and extrapolates for kind, _, moved in calls if kind == "step"]
        assert (sum(tried) > 0) == extrapolates
        # Only an attempted extrapolation can be kept.
        flags = tried if steps else [False] * trace.iterations
        extrapolated = [s.extrapolated for s in trace.steps]
        assert len(extrapolated) == trace.iterations
        assert all(t or not kept for kept, t in zip(extrapolated, flags))
        assert kinds.count("channel") == steps + 2 + sum(tried)
        assert kinds.count("links") == trace.iterations + 2 + sum(tried)
        # Each step starts from the phases the loop kept: those of the last
        # channel, or of the one before it after a rejected extrapolation.
        channels, done = [], 0
        for kind, theta, _ in calls:
            if kind == "channel":
                channels.append(theta)
            elif kind == "step":
                rejected = done and tried[done - 1] and not extrapolated[done - 1]
                np.testing.assert_array_equal(channels[-2 if rejected else -1], theta)
                done += 1


def test_draw_true_channels_are_stacked_once(monkeypatch):
    # One draw solved by four schemes at rho = 0: every scheme's estimate is
    # the true channel set, whose stacked arrays are formed once for all.
    formed = []
    for name in ("d", "g", "s"):
        real = vars(ChannelSet)[name].func

        def counted(self, real=real, name=name):
            formed.append((id(self), name))
            return real(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(ChannelSet, name)
        monkeypatch.setattr(ChannelSet, name, prop)
    draws = []
    real_realize = pipeline.realize_channels

    def realize_spy(*args, **kwargs):
        draws.append(real_realize(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(pipeline, "realize_channels", realize_spy)
    cfg = small_config(**_SMALL)
    schemes = [SchemeSpec(solver="aso"), SchemeSpec(solver="qcr"),
               SchemeSpec(solver="discrete", levels=4), SchemeSpec(solver="random")]
    out = pipeline.solve_realization(cfg, chan.default_geometry(cfg), schemes, 7, 0)
    assert len(out) == 4 and len(draws) == 1
    true = sorted(name for owner, name in formed if owner == id(draws[0]))
    assert true == ["d", "g", "s"]
    assert len(formed) == 3


@pytest.mark.parametrize("n_starts", [1, 2])
@pytest.mark.parametrize("scheme", [
    SchemeSpec(solver="aso"), SchemeSpec(solver="qcr"), SchemeSpec(solver="sdr"),
    SchemeSpec(solver="discrete", levels=4),
], ids=lambda s: s.label)
def test_phase_subproblems_share_one_workspace_per_start(scheme, n_starts, monkeypatch):
    # Every phase subproblem of one start is built into the same memory, not
    # into a fresh RN x RN array per outer iteration.
    starts = []
    real_once, real_build = pipeline._optimize_once, irs_opt.build_cmcqp

    def once_spy(*args, **kwargs):
        starts.append([])
        return real_once(*args, **kwargs)

    def build_spy(*args, **kwargs):
        data = real_build(*args, **kwargs)
        starts[-1].append(data.zcal)
        return data

    monkeypatch.setattr(pipeline, "_optimize_once", once_spy)
    monkeypatch.setattr(irs_opt, "build_cmcqp", build_spy)
    cfg, ch, _, _, _ = build_instance(4, **_SMALL, max_outer=3, eps3=0.0)
    pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(4), n_starts=n_starts)
    assert [len(zcals) for zcals in starts] == [cfg.max_outer] * n_starts
    for zcals in starts:
        assert all(np.shares_memory(z, zcals[0]) for z in zcals[1:])


# ---- one Step per outer iteration ----

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("solver", ["aso", "qcr", "sdr", "random", "none"])
def test_cut_is_the_stopped_run(solver, seed):
    # A run cut after cap steps is the run that max_outer = cap makes from
    # the same generator, its stop flag included: False below the step the
    # stop rule ended the whole run at, True there.
    cfg = desk_config()
    ch = pipeline.realize_channels(cfg, chan.default_geometry(cfg), 5, seed)
    scheme = SchemeSpec(solver=solver)
    _, _, trace = pipeline.joint_optimize(ch, cfg, scheme, np.random.default_rng(5))
    n = trace.iterations
    assert trace.converged and n >= 3
    for cap in sorted({1, 2, n // 2, n - 1, n}):
        _, _, stopped = pipeline.joint_optimize(
            ch, cfg.with_(max_outer=cap), scheme, np.random.default_rng(5))
        cut = trace.upto(cap, cfg.eps3)
        for name in ("sum_rate", "iterations", "converged", "final_sum_rate_true"):
            assert getattr(cut, name) == getattr(stopped, name), (cap, name)
    for cap in (0, n + 1):
        with pytest.raises(ValueError):
            trace.upto(cap, cfg.eps3)


def test_refused_phase_step_counts_its_work(monkeypatch):
    # A QCR step that lowers the phase objective is refused: the phases stay
    # at the start's, so the rates are those of the W steps alone (the random
    # scheme from the same generator), and each step still counts its work.
    real_qcr = irs_opt.qcr_solve

    def worse_qcr(theta, data, **kwargs):
        _, relaxed, trace = real_qcr(theta, data, **kwargs)
        # The rotation of theta that turns its linear term to -2|theta^H omega|.
        c = theta.conj() @ data.omega
        worse = theta * (-c / abs(c))
        assert irs_opt.eval_f7(worse, data) < irs_opt.eval_f7(theta, data)
        return worse, relaxed, trace

    monkeypatch.setattr(irs_opt, "qcr_solve", worse_qcr)
    cfg, ch, _, _, _ = build_instance(3, **_SMALL)
    _, theta, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="qcr"), np.random.default_rng(3))
    _, ref_theta, ref = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="random"), np.random.default_rng(3))
    assert trace.iterations > 1
    assert all(s.phase_refused and 0 < s.phase_work <= pipeline.QCR_BUDGET
               and not s.extrapolated for s in trace.steps)
    np.testing.assert_array_equal(theta.theta, ref_theta.theta)
    assert trace.sum_rate == ref.sum_rate


# ---- the extrapolated phase step ----

# The irs_opt solver each row of pipeline.PHASE_STEPS calls.
_SOLVE = {"aso": "aso_solve", "qcr": "qcr_solve", "sdr": "sdr_solve", "discrete": "discrete_sweep"}


def _extrapolation_events(monkeypatch, cfg, ch, seed, n_starts, solver="qcr",
                          extrapolated=None):
    """Run the scheme of an extrapolating solver and return, per start,
    (events, trace): the phase steps, the solver's calls with their keyword
    arguments, the extrapolation attempts (beta, theta+, theta-, theta_e)
    and every rate the loop read, in order."""
    events, starts = [], []
    real_step, real_rate = pipeline._phase_step, model.link_rate
    real_extra = extrapolated or pipeline._extrapolated
    real_once, real_solve = pipeline._optimize_once, getattr(irs_opt, _SOLVE[solver])

    def step_spy(*args):
        events.append(("step",))
        return real_step(*args)

    def extra_spy(theta, prev, beta):
        out = real_extra(theta, prev, beta)
        events.append(("try", beta, theta, prev, out))
        return out

    def rate_spy(link):
        rate = real_rate(link)
        events.append(("rate", rate))
        return rate

    def solve_spy(theta, data, **kwargs):
        events.append(("solve", kwargs))
        return real_solve(theta, data, **kwargs)

    def once_spy(*args):
        first = len(events)
        out = real_once(*args)
        starts.append((events[first:], out[2]))
        return out

    monkeypatch.setattr(pipeline, "_phase_step", step_spy)
    monkeypatch.setattr(pipeline, "_extrapolated", extra_spy)
    monkeypatch.setattr(model, "link_rate", rate_spy)
    monkeypatch.setattr(irs_opt, _SOLVE[solver], solve_spy)
    monkeypatch.setattr(pipeline, "_optimize_once", once_spy)
    pipeline.joint_optimize(ch, cfg, SchemeSpec(solver=solver), np.random.default_rng(seed),
                            n_starts=n_starts)
    return starts


def _check_attempts(calls, trace, alpha):
    """Walk one start's events: each attempt follows the rate at theta+ and
    precedes the rate at theta_e; it is kept exactly when that rate is
    strictly higher, and beta follows its schedule. Returns the betas."""
    betas, expected, it = [], 0.5, -1
    for i, ev in enumerate(calls):
        if ev[0] == "step":
            it += 1
        elif ev[0] == "try":
            _, beta, theta, prev, out = ev
            assert calls[i - 1][0] == "rate" and calls[i + 1][0] == "rate"
            plus, cand = calls[i - 1][1], calls[i + 1][1]
            kept = trace.steps[it].extrapolated
            assert kept == (cand > plus)
            assert trace.sum_rate[it + 1] == max(plus, cand)
            assert beta == expected
            assert np.max(np.abs(np.abs(out) - alpha)) <= 1e-12
            expected = min(3.0, 1.5 * beta) if kept else max(0.1, 0.5 * beta)
            betas.append(beta)
    assert it + 1 == trace.iterations
    return betas


def test_qcr_extrapolation_schedule(monkeypatch):
    # A draw on which beta reaches both of its bounds within each start.
    cfg, ch, _, _, _ = build_instance(11, **_SMALL, max_outer=60, eps3=0.0)
    starts = _extrapolation_events(monkeypatch, cfg, ch, 11, n_starts=2)
    assert len(starts) == 2
    betas = []
    for calls, trace in starts:
        betas.append(_check_attempts(calls, trace, cfg.alpha))
        assert min(betas[-1]) == 0.1 and max(betas[-1]) == 3.0
        # The loop's QCR steps take at most the budget of FISTA steps.
        budgets = [ev[1].get("max_iter") for ev in calls if ev[0] == "solve"]
        assert budgets and set(budgets) == {pipeline.QCR_BUDGET}
        assert max(s.phase_work for s in trace.steps) <= pipeline.QCR_BUDGET
        assert (np.diff(trace.sum_rate) >= 0).all()
    # beta restarts at 0.5 for the second start, not where the first ended.
    assert betas[0][-1] != 0.5 and betas[1][0] == 0.5


def test_aso_extrapolation_schedule(monkeypatch):
    # ASO takes the extrapolated step on QCR's beta schedule, and each of its
    # steps in the loop sweeps at most ASO_BUDGET times.
    cfg, ch, _, _, _ = build_instance(11, **_SMALL, max_outer=60, eps3=0.0)
    starts = _extrapolation_events(monkeypatch, cfg, ch, 11, n_starts=2, solver="aso")
    assert len(starts) == 2
    for calls, trace in starts:
        assert _check_attempts(calls, trace, cfg.alpha)
        assert any(s.extrapolated for s in trace.steps)
        budgets = [ev[1].get("max_sweeps") for ev in calls if ev[0] == "solve"]
        assert len(budgets) == trace.iterations and set(budgets) == {pipeline.ASO_BUDGET}
        assert max(s.phase_work for s in trace.steps) <= pipeline.ASO_BUDGET
        assert (np.diff(trace.sum_rate) >= 0).all()


@pytest.mark.parametrize("solver", sorted(pipeline.PHASE_STEPS))
def test_row_calls_its_solver_once_per_outer_iteration(solver, monkeypatch):
    # Each row calls its irs_opt solver, looked up when the step runs, once
    # per outer iteration with the row's budget: ASO_BUDGET sweeps,
    # QCR_BUDGET FISTA steps, config.max_aso sweeps for the discrete sweep
    # (not ASO's budget), and for SDR the scheme's generator. A row that does
    # not extrapolate keeps no extrapolated step, and only SDR opens a bound.
    calls, real = [], getattr(irs_opt, _SOLVE[solver])

    def solve_spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(irs_opt, _SOLVE[solver], solve_spy)
    over = dict(n=2, n_h=2, n_v=1, max_outer=4) if solver == "sdr" else _SMALL
    cfg, ch, _, _, _ = build_instance(4, **over, max_aso=pipeline.ASO_BUDGET + 2)
    rng = np.random.default_rng(4)
    scheme = SchemeSpec(solver=solver, levels=4 if solver == "discrete" else 0)
    _, _, trace = pipeline.joint_optimize(ch, cfg, scheme, rng)
    key, budget = {"aso": ("max_sweeps", pipeline.ASO_BUDGET),
                   "qcr": ("max_iter", pipeline.QCR_BUDGET),
                   "sdr": ("rng", rng),
                   "discrete": ("max_sweeps", cfg.max_aso)}[solver]
    assert len(calls) == trace.iterations > 1
    assert all(kwargs[key] is budget for kwargs in calls)
    if not pipeline.PHASE_STEPS[solver].extrapolates:
        assert not any(s.extrapolated for s in trace.steps)
    if solver != "sdr":
        assert not any(s.bound_open for s in trace.steps)


def test_open_sdr_bound_flags_its_step(monkeypatch):
    # An SDR solve whose bound did not close is recorded on its step.
    real_sdr = irs_opt.sdr_solve

    def open_sdr(*args, **kwargs):
        theta, bound, _ = real_sdr(*args, **kwargs)
        return theta, bound, False

    monkeypatch.setattr(irs_opt, "sdr_solve", open_sdr)
    cfg, ch, _, _, _ = build_instance(8, n=2, n_h=2, n_v=1, max_outer=4)
    _, _, trace = pipeline.joint_optimize(
        ch, cfg, SchemeSpec(solver="sdr"), np.random.default_rng(8))
    assert trace.iterations > 1
    assert all(s.bound_open and s.phase_work == 1 for s in trace.steps)


def test_qcr_extrapolation_tie_is_not_kept(monkeypatch):
    # Phases whose rate only ties with theta+ are rejected, and beta halves
    # down to its floor.
    cfg, ch, _, _, _ = build_instance(10, **_SMALL, max_outer=8, eps3=0.0)
    starts = _extrapolation_events(monkeypatch, cfg, ch, 10, n_starts=1,
                                   extrapolated=lambda theta, prev, beta: theta.copy())
    calls, trace = starts[0]
    betas = _check_attempts(calls, trace, cfg.alpha)
    assert not any(s.extrapolated for s in trace.steps)
    assert betas == [0.5, 0.25, 0.125, 0.1, 0.1, 0.1, 0.1, 0.1][:len(betas)]
    assert len(betas) >= 5


@pytest.mark.parametrize("index, plain_bits", [(0, 22.56266), (1, 22.83271)])
def test_qcr_full_scale_rate_floor(index, plain_bits):
    # The full-scale QCR solves of master seed 1, realizations 0 and 1 (the
    # benchmark's full_qcr panel), end at or above the rates the loop
    # reached with QCR relaxed to tolerance and no extrapolation.
    cfg = full_config()
    ((scheme, trace, _),) = pipeline.solve_realization(
        cfg, chan.default_geometry(cfg), [SchemeSpec(solver="qcr")], 1, index)
    assert trace.final_sum_rate_true / np.log(2.0) >= plain_bits
    assert max(s.phase_work for s in trace.steps) <= pipeline.QCR_BUDGET
