import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dengue_rd import (
    ConfigError,
    ModelParams,
    SimConfig,
    build_initial_history,
    endemic_equilibrium,
    load_config,
    min_resolvable_time,
    predicted_attractor,
    validate_for_certification,
    validate_initial_history,
)
from dengue_rd.cli import load_sweep, main, run_sweep
from dengue_rd.output import TIMESERIES_HEADER, _write_table, equilibria_report, fmt_float

from conftest import config_doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- load_config


def test_load_config_from_dict_defaults():
    config = load_config(config_doc())
    assert config.params.A == 2.0 and config.params.tau_a == 0.5
    assert config.domain.n == 48 and config.domain.N == 48
    assert config.dt == 0.05 and config.t_end == 2.0
    assert config.snapshot_every == 0 and config.certify is False
    assert config.strict_box is None and config.history_mode == "constant"
    assert config.perturb_amplitude == 0.2 and config.perturb_modes == 3


def test_load_config_from_file(tmp_path):
    path = write_doc(tmp_path, config_doc(N=32, snapshot_every=5))
    config = load_config(path)
    assert config.domain.N == 32 and config.snapshot_every == 5


def test_load_config_bad_sources(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="JSON object"):
        load_config([1, 2, 3])


def test_load_config_names_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="bogus"):
        load_config(config_doc(bogus=1.0))
    doc = config_doc()
    del doc["H"]
    del doc["dt"]
    with pytest.raises(ConfigError, match="H.*dt|dt.*H"):
        load_config(doc)


def test_load_config_type_errors():
    with pytest.raises(ConfigError, match="'A' must be a number"):
        load_config(config_doc(A="2"))
    with pytest.raises(ConfigError, match="'A' must be a number"):
        load_config(config_doc(A=True))
    with pytest.raises(ConfigError, match="'n' must be an integer"):
        load_config(config_doc(n=48.0))
    with pytest.raises(ConfigError, match="'certify' must be a boolean"):
        load_config(config_doc(certify=1))
    with pytest.raises(ConfigError, match="'strict_box' must be a boolean"):
        load_config(config_doc(strict_box="yes"))


def test_load_config_dt_must_divide_delays():
    with pytest.raises(ConfigError, match="nearest admissible dt") as excinfo:
        load_config(config_doc(dt=0.03))
    suggestion = float(str(excinfo.value).rsplit("is ", 1)[1])
    load_config(config_doc(dt=suggestion))  # the suggestion is usable


def test_load_config_enforces_stability_bound():
    with pytest.raises(ConfigError, match="stability bound"):
        load_config(config_doc(dt=0.1))  # divides tau_a but exceeds 0.2/3


def test_stability_bound_message_prints_a_plain_float(tmp_path, capsys):
    message = "dt=0.1 exceeds the explicit-Euler stability bound 0.06666666666666667"
    with pytest.raises(ConfigError) as excinfo:
        load_config(config_doc(dt=0.1))
    assert str(excinfo.value) == message
    assert main(["equilibria", "--config", write_doc(tmp_path, config_doc(dt=0.1))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_config_rejects_bad_run_fields():
    with pytest.raises(ConfigError, match="t_end"):
        load_config(config_doc(t_end=-1.0))
    with pytest.raises(ConfigError, match="history_mode"):
        load_config(config_doc(history_mode="random"))
    with pytest.raises(ConfigError, match="perturb_amplitude"):
        load_config(config_doc(perturb_amplitude=1.0))
    with pytest.raises(ConfigError, match="gamma_h"):
        load_config(config_doc(gamma_h=-1.0))


def test_load_config_certify_needs_supercritical():
    with pytest.raises(ConfigError, match="R0"):
        load_config(config_doc(b=0.5, certify=True))


def test_load_config_certify_needs_resolvable_kernels():
    # tau_a below the truncated-series floor forces dt below it too
    with pytest.raises(ConfigError, match="resolve"):
        load_config(config_doc(tau_a=5e-5, dt=2.5e-5, certify=True))


def test_validate_for_certification_delay_floor(worked_params, domain):
    p = ModelParams(**{**worked_params.__dict__, "tau_a": 5e-5})
    config = SimConfig(params=p, domain=domain, dt=5e-5, t_end=1.0)
    floor = min_resolvable_time(p.d_m, domain)
    with pytest.raises(ConfigError) as excinfo:
        validate_for_certification(config)
    assert str(excinfo.value) == (
        f"certification needs dt >= {floor!r}, and the extrinsic (tau_a, d_m) "
        "delay no shorter, so the truncated series resolves the kernel at every "
        "lag; got dt=5e-05, tau=5e-05"
    )


# ------------------------------------------------- initial data and attractor


def test_predicted_attractor_switches_at_threshold():
    sup = load_config(config_doc())
    assert np.allclose(
        predicted_attractor(sup), endemic_equilibrium(sup.params), rtol=1e-14
    )
    sub = load_config(config_doc(b=0.5))
    assert np.array_equal(predicted_attractor(sub), [0.0, 2.0, 0.0])


def test_initial_history_admissible_and_deterministic():
    config = load_config(config_doc())
    h1 = build_initial_history(config, seed=0)
    assert validate_initial_history(h1, config.params, strict_positive=True).ok
    h2 = build_initial_history(config, seed=0)
    for (_, a), (_, b) in zip(h1.entries(), h2.entries()):
        assert np.array_equal(a, b)
    h3 = build_initial_history(config, seed=1)
    assert not np.array_equal(h1.latest, h3.latest)


def test_initial_history_zero_amplitude_sits_on_attractor():
    config = load_config(config_doc(perturb_amplitude=0.0))
    hist = build_initial_history(config, seed=0)
    star = endemic_equilibrium(config.params)
    assert np.abs(hist.latest - star[:, None]).max() < 1e-14


def test_initial_history_below_threshold_is_positive():
    config = load_config(config_doc(b=0.5))
    hist = build_initial_history(config, seed=3)
    report = validate_initial_history(hist, config.params, strict_positive=True)
    assert report.ok and not report.degenerate


def test_initial_history_modes():
    frozen = build_initial_history(load_config(config_doc()), seed=5)
    arrays = [s for _, s in frozen.entries()]
    for arr in arrays[1:]:
        assert np.array_equal(arr, arrays[0])
    wavy_config = load_config(config_doc(history_mode="modulated"))
    wavy = build_initial_history(wavy_config, seed=5)
    arrays = [s for _, s in wavy.entries()]
    assert np.abs(arrays[0] - arrays[-1]).max() > 1e-3
    assert validate_initial_history(wavy, wavy_config.params, strict_positive=True).ok


# ----------------------------------------------------------------- formatting


def test_fmt_float_round_trips():
    for value in (1.0 / 3.0, 1e-300, 0.1, -2.5e17):
        assert float(fmt_float(value)) == value
    assert fmt_float(float("nan")) == "nan"
    specials = [float("nan"), math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308]
    table = io.StringIO()
    _write_table(table, np.array([specials]))
    assert table.getvalue() == ",".join(format(v, ".17g") for v in specials) + "\n"


def test_equilibria_report_contents():
    report = equilibria_report(load_config(config_doc()))
    assert report["r0"] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert report["regime"] == "new_regime"
    assert report["endemic"] == pytest.approx([0.5, 4.0 / 3.0, 1.0 / 3.0], rel=1e-13)
    assert report["dfe"] == [0.0, 2.0, 0.0]
    assert len(report["bound_vector"]) == 3
    assert report["stability_dt_bound"] == pytest.approx(0.2 / 3.0, rel=1e-14)
    sub = equilibria_report(load_config(config_doc(b=0.5)))
    assert sub["endemic"] is None and sub["endemic_residual"] is None


# ------------------------------------------------------------------------ CLI


def test_cli_equilibria_stdout_and_file(tmp_path, capsys):
    path = write_doc(tmp_path, config_doc())
    assert main(["equilibria", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert doc["regime"] == "new_regime"
    out = tmp_path / "eq"
    assert main(["equilibria", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "equilibria.json").read_text()) == doc


def test_cli_simulate_outputs(tmp_path, capsys):
    path = write_doc(tmp_path, config_doc(t_end=1.0, snapshot_every=10))
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("simulated 20 steps")
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == TIMESERIES_HEADER
    assert len(lines) == 22  # header + 21 recorded steps
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0] == "t,x,u1,u2,u3"
    assert len(snaps) == 1 + 3 * 48  # t = 0, 0.5, 1.0 on a 48-point grid


def test_cli_simulate_deterministic_and_seed_sensitive(tmp_path, capsys):
    path = write_doc(tmp_path, config_doc(t_end=0.5))
    outs = [tmp_path / f"o{i}" for i in range(3)]
    main(["simulate", "--config", path, "--out", str(outs[0])])
    main(["simulate", "--config", path, "--out", str(outs[1])])
    main(["simulate", "--config", path, "--out", str(outs[2]), "--seed", "7"])
    capsys.readouterr()
    first = (outs[0] / "timeseries.csv").read_bytes()
    assert first == (outs[1] / "timeseries.csv").read_bytes()
    assert first != (outs[2] / "timeseries.csv").read_bytes()


def test_cli_certify_pass(tmp_path, capsys):
    path = write_doc(tmp_path, config_doc(t_end=1.0, certify=True))
    out = tmp_path / "cert"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    assert "certificate PASS" in capsys.readouterr().out
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["passed"] is True
    assert doc["v_final"] < doc["v_initial"]
    assert doc["tolerances"]["v_step_slack"] == 1e-8


def test_cli_certify_tolerance_flags(tmp_path, capsys):
    # certify upgrades a non-certifying document on the fly
    path = write_doc(tmp_path, config_doc(t_end=0.5))
    out = tmp_path / "cert"
    rc = main(
        ["certify", "--config", path, "--out", str(out),
         "--tol", "1e-3", "--dissipation-tol", "1e-9"]
    )
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["tolerances"]["v_step_slack"] == 1e-3
    assert doc["tolerances"]["dissipation_sign"] == 1e-9


def test_cli_certify_rejects_bad_tolerances_before_running(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("integrated despite a bad tolerance")

    monkeypatch.setattr("dengue_rd.cli.run", no_run)
    path = write_doc(tmp_path, config_doc(t_end=0.5))
    for flags in (
        ["--tol", "nan", "--dissipation-tol=nan"],
        ["--tol=-1e-3"],
        ["--dissipation-tol", "inf"],
    ):
        out = tmp_path / "cert"
        assert main(["certify", "--config", path, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite and nonnegative" in err
        assert not (out / "certificate.json").exists()


def test_cli_certify_failure_exit_code(tmp_path, capsys, monkeypatch):
    class FakeCert:
        passed = False
        v_initial = 1.0
        v_final = 2.0
        violations = [{"kind": "v_increase"}]

        def to_dict(self):
            return {"passed": False}

    monkeypatch.setattr(
        "dengue_rd.cli.certify_trajectory", lambda traj, **kw: FakeCert()
    )
    path = write_doc(tmp_path, config_doc(t_end=0.5, certify=True))
    out = tmp_path / "cert"
    assert main(["certify", "--config", path, "--out", str(out)]) == 3
    assert "certificate FAIL" in capsys.readouterr().out


def test_cli_validation_failures_exit_2(tmp_path, capsys):
    bad = write_doc(tmp_path, config_doc(bogus=1.0))
    assert main(["equilibria", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, config_doc(t_end=0.1))
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file, not a directory")
    assert main(["simulate", "--config", path, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert blocker.read_text() == "a regular file, not a directory"


# ---------------------------------------------------------------------- sweep


def sweep_doc(**base_overrides):
    base = config_doc(
        **{"n": 32, "dt": 0.005, "t_end": 0.5, "certify": True, **base_overrides}
    )
    return {
        "base": base,
        "parameter": "b",
        "values": [0.5, 1.0, 4.0],
        "tag": "biting-rate-regimes",
    }


def test_load_sweep_validation():
    doc = sweep_doc()
    assert load_sweep(doc).values == (0.5, 1.0, 4.0)
    for mutate, pattern in [
        (lambda d: d.update(extra=1), "unknown sweep keys"),
        (lambda d: d.pop("tag"), "missing sweep keys"),
        (lambda d: d.update(parameter="L"), "model parameters"),
        (lambda d: d.update(values=[]), "nonempty list"),
        (lambda d: d.update(values=[1.0, -2.0]), "positive"),
        (lambda d: d.update(values=[1.0, True]), "positive"),
        (lambda d: d.update(tag=7), "tag"),
        (lambda d: d.update(base=[1]), "configuration object"),
    ]:
        bad = {k: (dict(v) if isinstance(v, dict) else v) for k, v in sweep_doc().items()}
        mutate(bad)
        with pytest.raises(ConfigError, match=pattern):
            load_sweep(bad)


def test_sweep_over_zero_delay_and_recovery():
    doc = sweep_doc()
    doc.update(parameter="tau_b", values=[0.0, 0.5])
    rows = run_sweep(load_sweep(doc), seed=0)
    assert [r.value for r in rows] == [0.0, 0.5]
    assert all(r.error is None for r in rows), [r.error for r in rows]
    assert all(np.isfinite(r.final_dist) for r in rows)
    for parameter in ("gamma_h", "tau_a"):
        doc.update(parameter=parameter, values=[0.0, 0.5])
        assert load_sweep(doc).values == (0.0, 0.5)
    doc.update(parameter="tau_b", values=[0.0, -0.5])
    with pytest.raises(ConfigError, match="nonnegative"):
        load_sweep(doc)
    doc.update(parameter="b", values=[0.0, 1.0])
    with pytest.raises(ConfigError, match="positive"):
        load_sweep(doc)


def test_run_sweep_regimes_and_certification():
    rows = run_sweep(load_sweep(sweep_doc()), seed=0)
    assert [r.value for r in rows] == [0.5, 1.0, 4.0]
    assert [r.regime for r in rows] == [
        "below_threshold", "new_regime", "old_regime"
    ]
    r0s = [r.r0 for r in rows]
    assert r0s == sorted(r0s) and r0s[0] < 1.0 < r0s[1]
    # certification is skipped where no endemic state exists
    assert [r.certified for r in rows] == [None, True, True]
    assert all(r.error is None for r in rows)
    assert all(np.isfinite(r.final_dist) for r in rows)


def test_run_sweep_isolates_failing_rows():
    doc = sweep_doc(certify=False)
    doc["values"] = [1.0, 40.0]  # b = 40 violates the stability bound
    rows = run_sweep(load_sweep(doc), seed=0)
    assert rows[0].error is None and np.isfinite(rows[0].final_dist)
    assert rows[1].error is not None and "stability" in rows[1].error
    assert rows[1].final_dist is None
    assert rows[1].r0 is not None  # still reported for the failing row


@pytest.mark.parametrize("broken", ["missing", "null"])
def test_certifying_sweep_reports_a_bad_base_like_a_plain_one(tmp_path, capsys, broken):
    docs = {}
    for certify in (True, False):
        doc = sweep_doc(certify=certify)
        if broken == "missing":
            del doc["base"]["H"]
        else:
            doc["base"]["H"] = None
        docs[certify] = doc
    rows = {c: run_sweep(load_sweep(d), seed=0) for c, d in docs.items()}
    assert [r.to_dict() for r in rows[True]] == [r.to_dict() for r in rows[False]]
    expected = "missing required keys: H" if broken == "missing" else "must be a number"
    assert all(expected in r.error for r in rows[True])
    path = write_doc(tmp_path, docs[True], name="sweep.json")
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_rejects_a_non_boolean_certify():
    rows = run_sweep(load_sweep(sweep_doc(certify="yes")), seed=0)
    assert [r.error for r in rows] == ["key 'certify' must be a boolean, got 'yes'"] * 3


@pytest.mark.parametrize("error", [FloatingPointError, MemoryError])
def test_run_sweep_isolates_numeric_and_memory_errors(monkeypatch, error):
    import dengue_rd.cli as cli

    real_run = cli.run

    def failing_for_b2(config, initial):
        if config.params.b == 2.0:
            raise error("overflow in row b = 2" if error is FloatingPointError else "")
        return real_run(config, initial)

    monkeypatch.setattr(cli, "run", failing_for_b2)
    doc = sweep_doc(certify=False)
    doc["values"] = [1.0, 2.0, 3.0]
    rows = run_sweep(load_sweep(doc), seed=0)
    assert [r.value for r in rows] == [1.0, 2.0, 3.0]
    assert rows[1].error == ("overflow in row b = 2" if error is FloatingPointError else "MemoryError")
    assert rows[1].final_dist is None and rows[1].r0 is not None
    for row in (rows[0], rows[2]):
        assert row.error is None and np.isfinite(row.final_dist)


def test_cli_sweep_csv(tmp_path, capsys):
    path = write_doc(tmp_path, sweep_doc(), name="sweep.json")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "biting-rate-regimes" in stdout
    with open(out1 / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["value", "r0", "regime", "final_dist", "certified", "error"]
    assert [r[0] for r in rows[1:]] == ["0.5", "1", "4"]
    assert [r[4] for r in rows[1:]] == ["", "true", "true"]
    assert all(r[5] == "" for r in rows[1:])
    assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cli_sweep_rejects_empty_values(tmp_path, capsys):
    doc = sweep_doc()
    doc["values"] = []
    path = write_doc(tmp_path, doc, name="sweep.json")
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ shipped configs


def test_shipped_configs_load():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in config_dir.glob("*.json"))
    assert names == [
        "below_threshold.json",
        "sweep_biting_rate.json",
        "worked_sqrt2.json",
    ]
    for name in names:
        doc = json.loads((config_dir / name).read_text())
        if "parameter" in doc:
            load_sweep(doc)
        else:
            load_config(doc)
    worked = json.loads((config_dir / "worked_sqrt2.json").read_text())
    assert worked["certify"] is True
