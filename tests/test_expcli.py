import csv
import json
import math
import re

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import expcli, pipeline


MINIMAL_BASE = {"l": 1, "k": 1, "r": 1, "m_b": 2, "m_u": 1, "n": 2, "n_h": 2, "n_v": 1,
                "max_outer": 5}


def minimal_spec(tmp_path, **over):
    doc = {
        "base": dict(MINIMAL_BASE),
        "sweep": "reflecting_efficiency",
        "sweep_values": [1.0],
        "schemes": [{"solver": "aso"}],
        "n_seeds": 1,
        "master_seed": 9,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(over)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(results):
    with open(results, newline="") as fh:
        return list(csv.DictReader(fh))


def test_minimal_spec_single_row(tmp_path):
    spec = minimal_spec(tmp_path)
    results = expcli.run(spec)
    rows = read_rows(results)
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "ASO"
    assert row["sweep_param"] == "reflecting_efficiency"
    assert float(row["sum_rate_bits"]) > 0
    manifest = json.loads((results.parent / "manifest.json").read_text())
    assert manifest["rows"] == 1
    assert manifest["master_seed"] == 9


def _strip_wall(text: str) -> str:
    # wall-clock is measured, everything else must be byte-identical
    lines = text.splitlines()
    out = []
    for line in lines:
        parts = line.split(",")
        if len(parts) == 8 and parts[6] != "wall_ms":
            parts[6] = "WALL"
        out.append(",".join(parts))
    return "\n".join(out)


def test_rerun_reproduces_results(tmp_path):
    spec = minimal_spec(tmp_path, sweep_values=[0.5, 1.0], n_seeds=2)
    r1 = expcli.run(spec, out_dir=tmp_path / "a")
    r2 = expcli.run(spec, out_dir=tmp_path / "b")
    assert _strip_wall(r1.read_text()) == _strip_wall(r2.read_text())


def test_run_via_cli_exit_codes(tmp_path, capsys):
    spec = minimal_spec(tmp_path)
    assert expcli.main(["run", str(spec), "--out", str(tmp_path / "cli_out")]) == 0
    assert (tmp_path / "cli_out" / "results.csv").exists()

    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert expcli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert re.search(r":\d+:\d+:", err)  # line/column diagnostic

    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"base": {"l": 1}}))
    assert expcli.main(["run", str(missing_field)]) == 2


# Base configurations that fail inside a solve, or solve without meaning,
# unless SystemConfig rejects them.
NAN, INF = float("nan"), float("inf")
BAD_BASES = {
    "sigma2_nan": {"sigma2": NAN}, "sigma2_inf": {"sigma2": INF},
    "p_max_nan": {"p_max": [NAN]}, "p_max_inf": {"p_max": [INF]},
    "c0_nan": {"c0": NAN}, "c0_inf": {"c0": INF},
    "eps3_nan": {"eps3": NAN}, "eps3_inf": {"eps3": INF}, "eps3_negative": {"eps3": -1e-4},
    "beta_g_nan": {"beta_g": NAN}, "pathloss_irs_nan": {"pathloss_irs": NAN},
    "max_outer_zero": {"max_outer": 0}, "max_aso_zero": {"max_aso": 0},
    "c0_zero": {"c0": 0.0}, "c0_negative": {"c0": -1e-3},
    "beta_g_negative": {"beta_g": -1.0}, "beta_s_negative": {"beta_s": -1.0},
    "pathloss_direct_negative": {"pathloss_direct": -1.0},
    "pathloss_irs_negative": {"pathloss_irs": -2.2},
    "k_fractional": {"k": 2.5}, "k_float": {"k": 2.0},
    "l_float": {"l": 2.0, "p_max": [0.1, 0.1]},
    "r_fractional": {"r": 1.5}, "m_u_bool": {"m_u": True},
    "max_outer_fractional": {"max_outer": 3.5},
}


@pytest.mark.parametrize("over", [
    {"sweep": "iterations", "sweep_values": [-1, 0, 2]},
    {"sweep": "iterations", "sweep_values": [0, 2]},
    {"sweep": "iterations", "sweep_values": ["3"]},
    {"sweep": "iterations", "sweep_values": [1, 3],
     "schemes": [{"solver": "aso"}, {"solver": "aso", "csi_error_rho": 0.2}]},
    {"sweep": "n_phase_shifts", "sweep_values": [2, 0]},
    {"sweep": "n_phase_shifts", "sweep_values": [2.7]},
    {"sweep": "reflecting_efficiency", "sweep_values": [1.0, 1.5]},
    {"sweep": "reflecting_efficiency", "sweep_values": [1.0, 0.5, 1]},
    {"sweep": "ue_center_x", "sweep_values": [100.0], "geometry": {"ue_positions": [[95.0, 4.0, 1.5]]}},
    {"n_seeds": "abc"},
    {"master_seed": "x"},
    {"master_seed": -1},
    {"schemes": []},
    {"schemes": [{"solver": "aso", "csi_error_rho": float("nan")}]},
    {"schemes": [{"solver": "aso", "csi_error_rho": float("inf")}]},
    {"sweep": "csi_error_rho", "sweep_values": [0.0, float("nan")]},
    {"schemes": [{"solver": "aso", "levels": 4}]},
    {"geometry": [1, 2]},
    *({"base": dict(MINIMAL_BASE, **bad)} for bad in BAD_BASES.values()),
], ids=[
    "iterations_negative", "iterations_zero", "iterations_string", "iterations_csi_error",
    "n_phase_shifts_zero",
    "n_phase_shifts_fractional", "efficiency_above_one", "values_repeated",
    "center_of_fixed_ues", "n_seeds_string", "master_seed_string", "master_seed_negative",
    "schemes_empty", "csi_error_rho_nan", "csi_error_rho_inf", "csi_error_rho_sweep_nan",
    "levels_on_aso", "geometry_not_object", *BAD_BASES,
])
def test_bad_spec_exits_2_before_any_solve(tmp_path, monkeypatch, over):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran for a spec that should be rejected")

    monkeypatch.setattr(pipeline, "joint_optimize", no_solve)
    spec = minimal_spec(tmp_path, **over)
    assert expcli.main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_fixed_ue_rows_come_from_the_shared_runner(tmp_path):
    doc = json.loads(minimal_spec(
        tmp_path, sweep_values=[0.5, 1.0], n_seeds=2,
        schemes=[{"solver": "aso"}, {"solver": "random"}],
        geometry={"ue_positions": [[95.0, 4.0, 1.5]]},
    ).read_text())
    spec = expcli.ExperimentSpec.from_dict(doc)
    assert spec.fixed_ue
    rows = read_rows(expcli.run_spec(spec, tmp_path / "fixed"))

    def runner_rates(fixed_ue):
        rates = []
        for value in spec.sweep_values:
            config, geometry, schemes = expcli._sweep_config(spec, value)
            for seed in range(spec.n_seeds):
                for scheme, trace, _ in pipeline.solve_realization(
                    config, geometry, schemes, spec.master_seed, seed, fixed_ue=fixed_ue
                ):
                    rates.append((value, scheme.label, seed,
                                  expcli._fmt(trace.final_sum_rate_true / math.log(2.0))))
        return sorted(rates)

    written = sorted((float(r["value"]), r["scheme"], int(r["seed"]), r["sum_rate_bits"]) for r in rows)
    assert written == runner_rates(True)
    assert written != runner_rates(False)


def test_cli_rows_are_monte_carlo_rows(tmp_path):
    # A ue_center_x sweep's rows at value v are monte_carlo's rows at the
    # default geometry centred at v, in every column but sweep_param, value
    # and wall_ms.
    doc = json.loads(minimal_spec(
        tmp_path, sweep="ue_center_x", sweep_values=[50.0, 125.0], n_seeds=2,
        schemes=[{"solver": "aso"}, {"solver": "none"}],
    ).read_text())
    spec = expcli.ExperimentSpec.from_dict(doc)
    rows = read_rows(expcli.run_spec(spec, tmp_path / "ue"))
    assert tuple(rows[0]) == expcli.RESULT_COLUMNS
    columns = [c for c in pipeline.ROW_COLUMNS if c != "wall_ms"]
    for value in spec.sweep_values:
        written = sorted([r[c] for c in columns] for r in rows if float(r["value"]) == value)
        want = pipeline.monte_carlo(
            spec.base, chan.default_geometry(spec.base, ue_center_x=value),
            spec.schemes, spec.n_seeds, spec.master_seed,
        )
        assert written == sorted([expcli._fmt(r[c]) for c in columns] for r in want)


def test_run_spec_solves_through_the_pipeline_attribute(tmp_path, monkeypatch):
    # Instrumentation swaps pipeline.joint_optimize; every solve must see it.
    calls = []
    original = pipeline.joint_optimize

    def spy(*args, **kwargs):
        calls.append(args[2].label)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "joint_optimize", spy)
    doc = json.loads(minimal_spec(
        tmp_path, sweep_values=[0.5, 0.8, 1.0], n_seeds=2,
        schemes=[{"solver": "aso"}, {"solver": "none"}],
    ).read_text())
    rows = read_rows(expcli.run_spec(expcli.ExperimentSpec.from_dict(doc), tmp_path / "spy"))
    assert len(calls) == len(rows) == 3 * 2 * 2


def test_unknown_sweep_rejected(tmp_path):
    spec = minimal_spec(tmp_path, sweep="bandwidth")
    with pytest.raises(expcli.SpecError):
        expcli.run(spec)


@pytest.mark.parametrize("field, value", [("discrete_levels", 4), ("tau", [10.0])],
                         ids=["discrete_levels", "tau"])
def test_base_discrete_levels_rejected(tmp_path, field, value):
    # The phase-grid size is a scheme field (levels), not a scenario field;
    # the Newton precoder dual takes no step size tau.
    base = json.loads(minimal_spec(tmp_path).read_text())["base"]
    spec = minimal_spec(tmp_path, base=dict(base, **{field: value}))
    with pytest.raises(expcli.SpecError, match=field):
        expcli.run(spec)


@pytest.mark.parametrize("field, value", [("eps1", 1e-5), ("eps2", 1e-8), ("max_dual", 500)])
def test_base_solver_setting_exits_2(tmp_path, capsys, monkeypatch, field, value):
    # The inner solvers' settings are module constants, not scenario fields.
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran for a spec that should be rejected")

    monkeypatch.setattr(pipeline, "joint_optimize", no_solve)
    base = json.loads(minimal_spec(tmp_path).read_text())["base"]
    spec = minimal_spec(tmp_path, base=dict(base, **{field: value}))
    assert expcli.main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_discrete_levels_sweep_sets_scheme_levels(tmp_path):
    spec = expcli.ExperimentSpec.from_dict(json.loads(minimal_spec(
        tmp_path, sweep="discrete_levels", sweep_values=[2, 8],
        schemes=[{"solver": "discrete", "levels": 4}, {"solver": "aso"}],
    ).read_text()))
    cfg, _, schemes = expcli._sweep_config(spec, 8)
    assert cfg == spec.base
    assert [s.levels for s in schemes] == [8, 0]


@pytest.mark.parametrize("sweep, values, scheme, field", [
    ("discrete_levels", [2, 8], {"solver": "discrete", "levels": 4}, "levels"),
    ("csi_error_rho", [0.0, 0.1], {"solver": "aso"}, "csi_error_rho"),
])
def test_swept_schemes_keep_their_spec_label(tmp_path, monkeypatch, sweep, values, scheme, field):
    # The label names a scheme's rows and keys its generator. A swept scheme
    # keeps its spec label, so every sweep value starts a seed's solve from
    # the same generator state (the same initial phases and CSI-error
    # direction: the sweep is paired), and a row names the spec's scheme, not
    # the value that ran.
    starts = []
    original = pipeline.joint_optimize

    def spy(channels, config, swept, rng, **kwargs):
        starts.append((getattr(swept, field), swept.label, rng.bit_generator.state))
        return original(channels, config, swept, rng, **kwargs)

    monkeypatch.setattr(pipeline, "joint_optimize", spy)
    spec = expcli.ExperimentSpec.from_dict(json.loads(minimal_spec(
        tmp_path, sweep=sweep, sweep_values=values, n_seeds=2, schemes=[scheme],
    ).read_text()))
    label = spec.schemes[0].label
    rows = read_rows(expcli.run_spec(spec, tmp_path / "out"))
    assert [(r["value"], r["scheme"]) for r in rows] == [
        (expcli._fmt(v), label) for v in values for _ in range(2)]
    # Units run value-major: (v0, seed 0), (v0, seed 1), (v1, seed 0), (v1, seed 1).
    assert [(ran, name) for ran, name, _ in starts] == [(v, label) for v in values for _ in range(2)]
    states = [state for _, _, state in starts]
    assert states[0] == states[2] and states[1] == states[3] and states[0] != states[1]


def test_duplicate_scheme_labels_rejected(tmp_path):
    spec = minimal_spec(tmp_path, schemes=[{"solver": "aso"}, {"solver": "aso"}])
    with pytest.raises(expcli.SpecError):
        expcli.run(spec)


def test_master_seed_override_changes_draws(tmp_path):
    spec = minimal_spec(tmp_path)
    r1 = expcli.run(spec, out_dir=tmp_path / "s9")
    r2 = expcli.run(spec, out_dir=tmp_path / "s10", master_seed=10)
    v1 = float(read_rows(r1)[0]["sum_rate_bits"])
    v2 = float(read_rows(r2)[0]["sum_rate_bits"])
    assert v1 != v2


def test_float_formatting_twelve_digits(tmp_path):
    spec = minimal_spec(tmp_path)
    results = expcli.run(spec)
    value = read_rows(results)[0]["sum_rate_bits"]
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 12


def test_summarize_roundtrip(tmp_path):
    spec = minimal_spec(tmp_path, sweep_values=[0.5, 1.0], n_seeds=3)
    results = expcli.run(spec)
    summary = expcli.summarize(results)
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert int(row["n_seeds"]) == 3
        assert float(row["stderr_sum_rate_bits"]) >= 0
    # idempotent: summarizing the same file twice gives identical bytes
    second = expcli.summarize(results, tmp_path / "again.csv")
    assert summary.read_text() == second.read_text()


def test_summarize_single_row_zero_stderr(tmp_path):
    spec = minimal_spec(tmp_path)
    results = expcli.run(spec)
    summary = expcli.summarize(results)
    with open(summary, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["stderr_sum_rate_bits"]) == 0.0
    assert float(row["mean_sum_rate_bits"]) == pytest.approx(
        float(read_rows(results)[0]["sum_rate_bits"])
    )


def test_summarize_empty_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(expcli.RESULT_COLUMNS) + "\n")
    summary = expcli.summarize(empty)
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_summarize_malformed_row_diagnostic(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        ",".join(expcli.RESULT_COLUMNS) + "\n"
        + "reflecting_efficiency,1,ASO,0,not_a_number,3,1.0,true\n"
    )
    with pytest.raises(expcli.SpecError, match="row 2"):
        expcli.summarize(bad)


def test_summarize_missing_header(tmp_path):
    bad = tmp_path / "headerless.csv"
    bad.write_text("1,2,3\n")
    assert expcli.main(["summarize", str(bad)]) == 2


def test_iterations_sweep_reads_trace(tmp_path):
    spec = minimal_spec(
        tmp_path,
        sweep="iterations",
        sweep_values=[1, 3],
        base={
            "l": 1, "k": 1, "r": 1, "m_b": 2, "m_u": 1,
            "n": 2, "n_h": 2, "n_v": 1, "max_outer": 4,
        },
    )
    results = expcli.run(spec)
    rows = read_rows(results)
    assert [int(r["value"]) for r in rows] == [1, 3]
    # longer horizon can only improve the (monotone) trace
    assert float(rows[1]["sum_rate_bits"]) >= float(rows[0]["sum_rate_bits"]) - 1e-9


def test_iterations_sweep_wall_ms_is_per_cap(tmp_path, monkeypatch):
    # A cap row's wall_ms is the time up to that cap: it never decreases
    # with the cap and never exceeds the whole solve's wall_ms.
    solves = []
    real = pipeline.solve_realization

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        solves.extend(out)
        return out

    monkeypatch.setattr(pipeline, "solve_realization", spy)
    spec = minimal_spec(
        tmp_path,
        sweep="iterations",
        sweep_values=[5, 1, 3, 8],
        schemes=[{"solver": "aso"}, {"solver": "qcr"}],
        base={
            "l": 1, "k": 1, "r": 1, "m_b": 2, "m_u": 1,
            "n": 2, "n_h": 2, "n_v": 1, "max_outer": 4,
        },
    )
    rows = read_rows(expcli.run(spec))
    assert len(solves) == 2 and len(rows) == 4 * len(solves)
    for scheme, trace, wall_ms in solves:
        assert trace.iterations == 8 and len(trace.steps) == 8
        by_cap = sorted((int(r["value"]), float(r["wall_ms"]))
                        for r in rows if r["scheme"] == scheme.label)
        assert [cap for cap, _ in by_cap] == [1, 3, 5, 8]
        walls = [ms for _, ms in by_cap]
        assert walls == sorted(walls)
        assert walls[-1] <= wall_ms
        for cap, ms in by_cap:
            assert ms == pytest.approx(trace.steps[cap - 1].elapsed * 1e3, rel=1e-9)


def test_iterations_sweep_zero_rate_cap_is_not_converged(tmp_path, monkeypatch):
    # A cap row reads the outer loop's own stop rule, under which a zero
    # rate never stops the loop.
    rates = [0.0, 0.0, 1.0, 1.0]

    def synthetic(config, geometry, schemes, master_seed, seed_index, fixed_ue=False):
        steps = tuple(pipeline.Step(rate, it * 1e-3, (0.0,) * 4, 1, True, 0, False, False,
                                    False)
                      for it, rate in enumerate(rates[1:], start=1))
        trace = pipeline.RunTrace(start_rate=rates[0], steps=steps, converged=False,
                                  final_sum_rate_true=rates[-1])
        return [(scheme, trace, 3.0) for scheme in schemes]

    monkeypatch.setattr(pipeline, "solve_realization", synthetic)
    spec = minimal_spec(tmp_path, sweep="iterations", sweep_values=[1, 2, 3])
    rows = read_rows(expcli.run(spec))
    assert [(r["value"], r["converged"]) for r in rows] == [
        ("1", "false"), ("2", "false"), ("3", "true")]


def test_threads_match_serial(tmp_path):
    spec = minimal_spec(tmp_path, sweep_values=[0.5, 1.0], n_seeds=2)
    serial = expcli.run(spec, out_dir=tmp_path / "serial", threads=1)
    parallel = expcli.run(spec, out_dir=tmp_path / "parallel", threads=2)
    assert _strip_wall(serial.read_text()) == _strip_wall(parallel.read_text())


def test_unwritable_output_is_runtime_failure(tmp_path):
    spec = minimal_spec(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = expcli.main(["run", str(spec), "--out", str(blocker / "sub")])
    assert code == 3


def test_array_size_sweep_trend(tmp_path):
    # scaled-down replica of the elements-per-surface study: row count
    # matches values x schemes x seeds and the optimized scheme's mean
    # grows with the array size
    spec = minimal_spec(
        tmp_path,
        base={
            "l": 2, "k": 2, "r": 2, "m_b": 2, "m_u": 2,
            "n": 4, "n_h": 2, "n_v": 2, "max_outer": 30,
        },
        sweep="n_phase_shifts",
        sweep_values=[4, 8, 16],
        schemes=[{"solver": "aso"}, {"solver": "random"}, {"solver": "none"}],
        n_seeds=6,
        master_seed=3,
    )
    results = expcli.run(spec)
    rows = read_rows(results)
    assert len(rows) == 3 * 3 * 6
    aso_means = []
    for value in (4, 8, 16):
        vals = [float(r["sum_rate_bits"]) for r in rows
                if r["scheme"] == "ASO" and int(r["value"]) == value]
        assert len(vals) == 6
        aso_means.append(np.mean(vals))
    assert aso_means[0] < aso_means[1] < aso_means[2]
