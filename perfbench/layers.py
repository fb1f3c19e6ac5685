"""Per-layer instrumentation of cfirs and the per-layer metrics it yields.

The layers are the package modules. ``instrument`` wraps their public
functions in spans (see ``tracing.Tracer``); ``metrics`` turns the spans and
the solve records into the per-layer metrics. Counts are taken over the
panel solves only (the units every run of a seed executes), so they repeat
exactly; times are taken over every solve of the run.

Hooks derive counts from a call's arguments and result after its span has
closed, through public names only: ``irs_opt.eval_f7`` for the accept ratio
of the relaxations, ``nbytes`` of the arrays ``build_cmcqp`` returns, the
length of the traces that ``aso_solve`` and ``qcr_solve`` return.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from cfirs import channel, expcli, fp_core, irs_opt, model, tx_opt

from tracing import NO_SPAN, Tracer

LAYERS = ("expcli", "pipeline", "channel", "model", "fp_core", "tx_opt", "irs_opt")
SOLVE_SPAN = "pipeline.joint_optimize"

# (owner, attribute, span name)
_PLAIN = [
    (expcli, "run_spec", "expcli.run_spec"),
    (channel, "sample_ue_positions", "channel.sample_ue_positions"),
    (channel, "sample_angles", "channel.sample_angles"),
    (channel, "sample_channels", "channel.sample_channels"),
    (channel, "apply_csi_error", "channel.apply_csi_error"),
    (model, "stack", "model.stack"),
    (model, "matched_filter_init", "model.matched_filter_init"),
    (model, "link_matrices", "model.link_matrices"),
    (model, "noise_plus_interference", "model.noise_plus_interference"),
    (model, "sinr", "model.sinr"),
    (model, "sum_rate", "model.sum_rate"),
    (fp_core, "update_u", "fp_core.update_u"),
    (fp_core, "update_y", "fp_core.update_y"),
    (fp_core, "eval_f3", "fp_core.eval_f3"),
    (tx_opt, "optimize_w", "tx_opt.optimize_w"),
    (tx_opt.QuadraticForm, "solve", "tx_opt.form_solve"),
]
SAMPLE_SPANS = ("channel.sample_ue_positions", "channel.sample_angles", "channel.sample_channels")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer function the metrics read; call ``tracer.restore()`` after."""
    eval_f7 = getattr(irs_opt, "eval_f7", None)
    if eval_f7 is None:
        tracer.missing.append("irs_opt.eval_f7")
    current = {"theta": None}
    qcr = getattr(irs_opt, "qcr_solve", None)
    cap = inspect.signature(qcr).parameters.get("max_iter") if qcr else None
    qcr_cap = cap.default if cap is not None else math.inf

    def note_theta(args, kwargs, out):
        # The outer loop re-evaluates the effective channel at the current
        # phases before every phase step, so this is the step's input.
        current["theta"] = args[1] if len(args) > 1 else kwargs.get("theta")

    def accepted(new, data):
        old = current["theta"]
        if old is None or eval_f7 is None:
            return 0
        return int(eval_f7(new, data) >= eval_f7(old, data))

    def aso_hook(args, kwargs, out):
        return {"sweeps": len(out[1]) - 1}

    def discrete_hook(args, kwargs, out):
        return {"sweeps": out[1]}

    def qcr_hook(args, kwargs, out):
        iters = len(out[2]) - 1
        return {"iters": iters, "capped": int(iters >= kwargs.get("max_iter", qcr_cap)),
                "accepted": accepted(out[0], args[1])}

    def sdr_hook(args, kwargs, out):
        return {"unconverged": int(not out[2]), "accepted": accepted(out[0], args[0])}

    def cmcqp_hook(args, kwargs, out):
        return {"bytes": sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))}

    for owner, attr, name in _PLAIN:
        tracer.patch(owner, attr, name)
    tracer.patch(model, "effective_channel", "model.effective_channel", note_theta)
    tracer.patch(irs_opt, "build_cmcqp", "irs_opt.build_cmcqp", cmcqp_hook)
    tracer.patch(irs_opt, "aso_solve", "irs_opt.aso_solve", aso_hook)
    tracer.patch(irs_opt, "discrete_sweep", "irs_opt.discrete_sweep", discrete_hook)
    tracer.patch(irs_opt, "qcr_solve", "irs_opt.qcr_solve", qcr_hook)
    tracer.patch(irs_opt, "sdr_solve", "irs_opt.sdr_solve", sdr_hook)


# Per-layer metric -> unit, in the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "irs_opt.aso_solve.ms": "ms",
    "irs_opt.aso_solve.calls": "count",
    "irs_opt.aso_sweeps": "count",
    "irs_opt.discrete_sweep.ms": "ms",
    "irs_opt.discrete_sweep.calls": "count",
    "irs_opt.discrete_sweeps": "count",
    "irs_opt.qcr_solve.ms": "ms",
    "irs_opt.qcr_solve.calls": "count",
    "irs_opt.qcr_iters": "count",
    "irs_opt.qcr_capped": "count",
    "irs_opt.sdr_solve.ms": "ms",
    "irs_opt.sdr_solve.calls": "count",
    "irs_opt.sdr_admm_unconverged": "count",
    "irs_opt.accept_ratio": "ratio",
    "irs_opt.build_cmcqp.ms": "ms",
    "irs_opt.build_cmcqp.calls": "count",
    "irs_opt.cmcqp_bytes": "bytes",
    "irs_opt.self_ms": "ms",
    "tx_opt.optimize_w.ms": "ms",
    "tx_opt.optimize_w.calls": "count",
    "tx_opt.dual_iters": "count",
    "tx_opt.form_solve.us": "us",
    "tx_opt.form_solves": "count",
    "tx_opt.self_ms": "ms",
    "pipeline.stage_ms.u": "ms",
    "pipeline.stage_ms.y": "ms",
    "pipeline.stage_ms.w": "ms",
    "pipeline.stage_ms.theta": "ms",
    "pipeline.outer_iters": "count",
    "pipeline.self_ms": "ms",
    "model.effective_channel.us": "us",
    "model.effective_channel.calls": "count",
    "model.sum_rate.us": "us",
    "model.sum_rate.calls": "count",
    "model.sinr.us": "us",
    "model.sinr.calls": "count",
    "model.self_ms": "ms",
    "fp_core.update_y.us": "us",
    "fp_core.update_y.calls": "count",
    "fp_core.eval_f3.ms": "ms",
    "fp_core.eval_f3.calls": "count",
    "fp_core.self_ms": "ms",
    "channel.sample_ms": "ms",
    "channel.self_ms": "ms",
    "expcli.run_spec.self_ms": "ms",
    "trace.solve_ms.mean": "ms",
    "trace.accounted_frac": "ratio",
    "trace.solves_per_s": "1/s",
    "trace.spans": "count",
}

# Metric -> the span it reads; the metric is missing when that span's
# function no longer exists.
_SOURCE = {
    "irs_opt.aso_solve": "irs_opt.aso_solve", "irs_opt.aso_sweeps": "irs_opt.aso_solve",
    "irs_opt.discrete_sweep": "irs_opt.discrete_sweep",
    "irs_opt.discrete_sweeps": "irs_opt.discrete_sweep",
    "irs_opt.qcr_solve": "irs_opt.qcr_solve", "irs_opt.qcr_iters": "irs_opt.qcr_solve",
    "irs_opt.qcr_capped": "irs_opt.qcr_solve",
    "irs_opt.sdr_solve": "irs_opt.sdr_solve", "irs_opt.sdr_admm_unconverged": "irs_opt.sdr_solve",
    "irs_opt.build_cmcqp": "irs_opt.build_cmcqp", "irs_opt.cmcqp_bytes": "irs_opt.build_cmcqp",
    "tx_opt.optimize_w": "tx_opt.optimize_w",
    "tx_opt.form_solve": "tx_opt.form_solve", "tx_opt.form_solves": "tx_opt.form_solve",
    "model.effective_channel": "model.effective_channel", "model.sum_rate": "model.sum_rate",
    "model.sinr": "model.sinr",
    "fp_core.update_y": "fp_core.update_y", "fp_core.eval_f3": "fp_core.eval_f3",
    "channel.sample_ms": "channel.sample_channels", "expcli.run_spec": "expcli.run_spec",
}


def missing_metrics(tracer: Tracer) -> list:
    """Per-layer metrics whose span function was not found, or whose hook
    could not read the function's arguments or result."""
    out = []
    for metric in PER_LAYER:
        for prefix, span in _SOURCE.items():
            if (metric == prefix or metric.startswith(prefix + ".")) and span in tracer.missing:
                out.append(metric)
                break
    if ({"irs_opt.qcr_solve", "irs_opt.sdr_solve"} <= set(tracer.missing)
            or "irs_opt.eval_f7" in tracer.missing):
        out.append("irs_opt.accept_ratio")
    return out


def metrics(tracer: Tracer, solves, panel_ids, measured_s: float) -> dict:
    """Every per-layer metric as a number (0 where the workload makes no call).

    ``solves`` are the run's solve records (dicts with ``id``, ``stage_s``,
    ``iterations``, ``dual_iters``); ``panel_ids`` the ids of panel solves.
    """
    t = tracer.table()
    codes = {name: i for i, name in enumerate(tracer.names)}
    layer_of_code = np.asarray([name.split(".")[0] for name in tracer.names])
    span_layer = layer_of_code[t["name"]]
    in_solve = t["solve"] != NO_SPAN
    in_panel = np.isin(t["solve"], np.asarray(sorted(panel_ids), dtype=np.int64))
    values = tracer.values
    ids = t["id"]
    out = {}

    def of(*names):
        return np.isin(t["name"], [codes[n] for n in names if n in codes])

    def mean_dur(name, scale):
        sel = of(name)
        return float(t["dur"][sel].mean() * scale) if sel.any() else 0.0

    def panel_calls(name):
        return int((of(name) & in_panel).sum())

    def panel_sum(name, key):
        return int(sum(values.get(int(i), {}).get(key, 0) for i in ids[of(name) & in_panel]))

    n_solves = int(of(SOLVE_SPAN).sum())
    per_solve = 1e3 / n_solves if n_solves else 0.0

    def layer_self(layer):
        return float(t["self"][in_solve & (span_layer == layer)].sum() * per_solve)

    for fn in ("aso_solve", "discrete_sweep", "qcr_solve", "sdr_solve", "build_cmcqp"):
        out[f"irs_opt.{fn}.ms"] = mean_dur(f"irs_opt.{fn}", 1e3)
        out[f"irs_opt.{fn}.calls"] = panel_calls(f"irs_opt.{fn}")
    out["irs_opt.aso_sweeps"] = panel_sum("irs_opt.aso_solve", "sweeps")
    out["irs_opt.discrete_sweeps"] = panel_sum("irs_opt.discrete_sweep", "sweeps")
    out["irs_opt.qcr_iters"] = panel_sum("irs_opt.qcr_solve", "iters")
    out["irs_opt.qcr_capped"] = panel_sum("irs_opt.qcr_solve", "capped")
    out["irs_opt.sdr_admm_unconverged"] = panel_sum("irs_opt.sdr_solve", "unconverged")
    relax_calls = out["irs_opt.qcr_solve.calls"] + out["irs_opt.sdr_solve.calls"]
    relax_accepted = panel_sum("irs_opt.qcr_solve", "accepted") + panel_sum("irs_opt.sdr_solve", "accepted")
    out["irs_opt.accept_ratio"] = relax_accepted / relax_calls if relax_calls else 0.0
    builds = out["irs_opt.build_cmcqp.calls"]
    out["irs_opt.cmcqp_bytes"] = panel_sum("irs_opt.build_cmcqp", "bytes") / builds if builds else 0.0

    out["tx_opt.optimize_w.ms"] = mean_dur("tx_opt.optimize_w", 1e3)
    out["tx_opt.optimize_w.calls"] = panel_calls("tx_opt.optimize_w")
    out["tx_opt.form_solve.us"] = mean_dur("tx_opt.form_solve", 1e6)
    out["tx_opt.form_solves"] = panel_calls("tx_opt.form_solve")

    panel = [s for s in solves if s["id"] in panel_ids]
    for stage in ("u", "y", "w", "theta"):
        out[f"pipeline.stage_ms.{stage}"] = (
            float(np.mean([s["stage_s"][stage] for s in solves]) * 1e3) if solves else 0.0
        )
    out["tx_opt.dual_iters"] = int(sum(s["dual_iters"] for s in panel))
    out["pipeline.outer_iters"] = int(sum(s["iterations"] for s in panel))
    out["pipeline.self_ms"] = float(t["self"][of(SOLVE_SPAN)].sum() * per_solve)

    for fn in ("effective_channel", "sum_rate", "sinr"):
        out[f"model.{fn}.us"] = mean_dur(f"model.{fn}", 1e6)
        out[f"model.{fn}.calls"] = panel_calls(f"model.{fn}")
    out["fp_core.update_y.us"] = mean_dur("fp_core.update_y", 1e6)
    out["fp_core.update_y.calls"] = panel_calls("fp_core.update_y")
    out["fp_core.eval_f3.ms"] = mean_dur("fp_core.eval_f3", 1e3)
    out["fp_core.eval_f3.calls"] = panel_calls("fp_core.eval_f3")
    for layer in LAYERS[2:]:  # expcli and pipeline have their own self-time metrics
        out[f"{layer}.self_ms"] = layer_self(layer)

    sampling = of(*SAMPLE_SPANS) & ~in_solve
    draws = int(of("channel.sample_channels").sum())
    out["channel.sample_ms"] = float(t["dur"][sampling].sum() * 1e3 / draws) if draws else 0.0
    run_spec = of("expcli.run_spec")
    out["expcli.run_spec.self_ms"] = float(t["self"][run_spec].mean() * 1e3) if run_spec.any() else 0.0

    solve_total = float(t["dur"][of(SOLVE_SPAN)].sum())
    out["trace.solve_ms.mean"] = solve_total * per_solve
    out["trace.accounted_frac"] = float(t["self"][in_solve].sum() / solve_total) if solve_total else 0.0
    out["trace.solves_per_s"] = len(solves) / measured_s if measured_s > 0 else 0.0
    out["trace.spans"] = int(ids.size)
    return {name: out[name] for name in PER_LAYER}
