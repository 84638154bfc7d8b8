"""CLI plumbing: config resolution, envelopes, exports, exit codes.

Runs exercise the real task paths on small inputs; byte-identical
payload determinism is asserted on rendered canonical JSON, not on
parsed values.
"""

import json
import math
import os

import numpy as np
import pytest

from cylspec import cli
from cylspec import fields as F
from cylspec.cross_section import TorusCrossSection, build_spectrum
from cylspec.deformation_solver import _metric_tangential
from cylspec.errors import InvalidInput
from cylspec.mode_ode import RadialProfile

CS = TorusCrossSection(3, (1.0, 1.0, 1.0), 1)


def reduced_field():
    tt = next(m for m in build_spectrum(CS, "TTTensor").modes if any(m.freq))
    s = math.sqrt(tt.eigenvalue)
    h = _metric_tangential(CS).multiply_profile(RadialProfile.monomial(0.5, 1, 0.0))
    return h + F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, 0, -s))


def write_field(path):
    with open(path, "w") as fh:
        json.dump(cli.field_to_dict(reduced_field()), fh)
    return str(path)


# ---------------------------------------------------------------------------
# canonical rendering and field files
# ---------------------------------------------------------------------------


def test_canonical_json_fixed_float_format():
    text = cli.canonical_json({"b": 1.0 / 3.0, "a": [1, True, None]})
    assert text == '{"a":[1,true,null],"b":0.33333333333333331}'
    assert cli.canonical_json(math.inf) == "Infinity"
    assert json.loads(cli.canonical_json({"x": math.inf}))["x"] == math.inf


def test_field_round_trips_through_dict():
    h = reduced_field()
    back = cli.field_from_dict(cli.field_to_dict(h))
    assert (back - h).max_abs_coeff() == 0.0
    assert back.cs == h.cs


def test_field_dict_rejects_bad_shape():
    data = cli.field_to_dict(reduced_field())
    data["terms"][0]["coeff"] = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(InvalidInput, match="shape"):
        cli.field_from_dict(data)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_ini_and_json_configs_resolve_identically(tmp_path):
    ini = tmp_path / "job.ini"
    ini.write_text(
        "[cross-section]\ndim = 3\nside_lengths = 1.0, 1.0, 1.0\nfreq_cutoff = 1\n"
        "\n[task]\nname = spectrum\nkinds = Scalar, TTTensor\n\n[run]\nseed = 9\n"
    )
    js = tmp_path / "job.json"
    js.write_text(
        json.dumps(
            {
                "cross_section": {"dim": 3, "side_lengths": [1.0, 1.0, 1.0], "freq_cutoff": 1},
                "task": {"name": "spectrum", "kinds": "Scalar, TTTensor"},
                "run": {"seed": 9},
            }
        )
    )
    a = cli.resolve_config(cli._read_config_file(str(ini)), {})
    b = cli.resolve_config(cli._read_config_file(str(js)), {})
    assert a == b
    assert a.task["kinds"] == ["Scalar", "TTTensor"]


def test_resolved_config_spells_out_every_default():
    cfg = cli.resolve_config({"task": {"name": "solve-div"}}, {})
    assert cfg.task == {
        "name": "solve-div",
        "tau": 0.01,
        "mode_file": None,
        "n_modes": 6,
        "residual_tol": 1e-9,
    }
    assert cfg.cross_section == {"dim": 3, "side_lengths": [1.0, 1.0, 1.0], "freq_cutoff": 1}
    assert cfg.run == {"seed": 0, "threads": 1, "log_level": "warning"}


def test_config_schema_violations_name_the_key():
    with pytest.raises(InvalidInput, match="task.name"):
        cli.resolve_config({"task": {"name": "frobnicate"}}, {})
    with pytest.raises(InvalidInput, match="cross-section.spam"):
        cli.resolve_config({"cross_section": {"spam": 1}, "task": {"name": "spectrum"}}, {})
    with pytest.raises(InvalidInput, match="task.L"):
        cli.resolve_config(
            {"task": {"name": "three-circles", "mode_file": "h.json", "beta": 1.0}}, {}
        )
    with pytest.raises(InvalidInput, match="unknown key task.rho"):
        cli.resolve_config({"task": {"name": "spectrum", "rho": 0.5}}, {})
    with pytest.raises(InvalidInput, match="three offsets"):
        cli._parse_triples("0,1")


def test_flag_overrides_beat_config_values():
    cfg = cli.resolve_config(
        {"task": {"name": "solve-div", "tau": 0.05}}, {"tau": 0.2, "seed": 3}
    )
    assert cfg.task["tau"] == 0.2
    assert cfg.run["seed"] == 3


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_run_job_payloads_are_byte_identical():
    cfg = cli.resolve_config({"task": {"name": "solve-div"}}, {"seed": 5})
    a = cli.run_job(cfg)
    b = cli.run_job(cfg)
    assert cli.canonical_json(a["payload"]) == cli.canonical_json(b["payload"])
    assert a["inputs_digest"] == b["inputs_digest"]
    assert a["certificates"][0]["passed"]


def test_spectrum_envelope_lists_modes(tmp_path):
    cfg = cli.resolve_config(
        {"task": {"name": "spectrum"}, "output": {"dir": str(tmp_path)}}, {}
    )
    envelope = cli.run_job(cfg)
    path = cli.write_envelope(envelope, cfg)
    stored = json.loads(open(path).read())
    assert stored["payload"]["mu1"] == pytest.approx(4.0 * math.pi**2)
    assert stored["payload"]["counts"]["Scalar"] > 0
    assert stored["tool_version"] == cli.__version__


# ---------------------------------------------------------------------------
# main() and exit codes
# ---------------------------------------------------------------------------


def test_main_three_circles_via_flags(tmp_path, capsys):
    mode_file = write_field(tmp_path / "h.json")
    code = cli.main(
        [
            "three-circles",
            "--mode-file", mode_file,
            "--L", "1.0",
            "--beta", "5.0",
            "--beta-prime", "0.3",
            "--triples", "0,1,3;1,2,5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS three-circles(0,1,3)" in out
    stored = json.loads(open(tmp_path / "three-circles-envelope.json").read())
    assert all(r["holds"] for r in stored["payload"]["results"])
    assert stored["payload"]["tube_norm_series"]["offsets"] == list(range(6))


def test_main_rejects_beta_prime_above_rate_cap(tmp_path, capsys):
    mode_file = write_field(tmp_path / "h.json")
    code = cli.main(
        [
            "three-circles",
            "--mode-file", mode_file,
            "--L", "1.0",
            "--beta", "5.0",
            "--beta-prime", "4.9",
            "--triples", "0,1,2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "rate cap" in capsys.readouterr().err


def test_main_certificate_failure_exits_three(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[task]\nname = solve-div\nresidual_tol = 1e-20\n")
    code = cli.main(["solve-div", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "FAIL gauge-residual" in capsys.readouterr().out


def test_main_missing_mode_file_exits_two(tmp_path, capsys):
    code = cli.main(["kernel-classify", "--mode-file", str(tmp_path / "no.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "fromenv"))
    code = cli.main(["spectrum"])
    assert code == 0
    assert (tmp_path / "fromenv" / "spectrum-envelope.json").exists()


# ---------------------------------------------------------------------------
# validate and export
# ---------------------------------------------------------------------------


def test_validate_writes_report_and_passes(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(
        ["validate", "--grid", "64x10", "--report", str(report), "--out", str(tmp_path)]
    )
    assert code == 0
    stored = json.loads(report.read_text())
    names = [c["name"] for c in stored["checks"]]
    assert "lichnerowicz-rough-identity" in names and "flat-ricci-sup" in names
    assert all(c["passed"] for c in stored["checks"])


def test_validate_remainder_slope_on_a_large_probe(tmp_path):
    # seed 1 draws a probe well above unit size; unscaled, eps = 0.1 left
    # the quadratic regime and the slope came out near 2.9 (exit 3)
    code = cli.main(
        ["validate", "--remainder", "--seed", "1", "--grid", "48x8", "--out", str(tmp_path)]
    )
    assert code == 0
    envelope = json.loads((tmp_path / "validate-envelope.json").read_text())
    assert 1.9 <= envelope["payload"]["remainder_scan"]["exponent"] <= 2.1


def test_export_tube_norm_series(tmp_path):
    mode_file = write_field(tmp_path / "h.json")
    assert cli.main(
        ["three-circles", "--mode-file", mode_file, "--L", "1.0", "--beta", "5.0",
         "--beta-prime", "0.3", "--triples", "0,1,3", "--out", str(tmp_path)]
    ) == 0
    csv = tmp_path / "tubes.csv"
    code = cli.main(
        ["export", "--envelope", str(tmp_path / "three-circles-envelope.json"),
         "--kind", "tube-norm-series", "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t_j,norm_sq"
    assert len(lines) == 5
    assert [float(v) for v in lines[1].split(",")][0] == 0.0


def test_export_bound_fit_and_remainder_columns(tmp_path):
    envelope = {
        "payload": {
            "bound_fit_series": {"one_form": [[0.5, 2.0, -0.7], [0.8, 3.0, -1.6]]},
            "remainder_scan": {"epsilons": [0.1, 0.03], "remainders": [1e-3, 9e-5]},
        }
    }
    fit_csv = tmp_path / "fit.csv"
    cli.export_plot_data(envelope, "bound-fit", str(fit_csv))
    assert fit_csv.read_text().splitlines()[0] == "rho,ratio,log_gap"
    rem_csv = tmp_path / "rem.csv"
    cli.export_plot_data(envelope, "remainder-scan", str(rem_csv))
    assert rem_csv.read_text().splitlines()[0] == "epsilon,remainder_norm"
    with pytest.raises(InvalidInput, match="no tube-norm series"):
        cli.export_plot_data(envelope, "tube-norm-series", str(tmp_path / "x.csv"))
