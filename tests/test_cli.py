"""CLI plumbing: config resolution, envelopes, exports, exit codes.

Runs exercise the real task paths on small inputs; byte-identical
payload determinism is asserted on rendered canonical JSON, not on
parsed values.
"""

import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cylspec import cli
from cylspec import fd_oracle as O
from cylspec import fields as F
from cylspec import three_circles as tc
from cylspec.cross_section import TorusCrossSection, build_spectrum, modes_at
from cylspec.errors import InvalidInput
from cylspec.mode_ode import RadialProfile

CS = TorusCrossSection(3, (1.0, 1.0, 1.0), 1)


def reduced_field():
    tt = next(m for m in build_spectrum(CS, "TTTensor").modes if any(m.freq))
    s = math.sqrt(tt.eigenvalue)
    h = F.tangential_metric(CS).multiply_profile(RadialProfile.monomial(0.5, 1, 0.0))
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


INI_JSON_PAIRS = {
    "spectrum": (
        "[cross-section]\ndim = 3\nside_lengths = 1.0, 1.0, 1.0\nfreq_cutoff = 1\n"
        "\n[task]\nname = spectrum\nkinds = Scalar, TTTensor\n\n[run]\nseed = 9\n",
        {
            "cross_section": {"dim": 3, "side_lengths": [1.0, 1.0, 1.0], "freq_cutoff": 1},
            "task": {"name": "spectrum", "kinds": "Scalar, TTTensor"},
            "run": {"seed": 9},
        },
        ("kinds", ["Scalar", "TTTensor"]),
    ),
    # configparser lowercases option names; L must still reach task.L
    "three-circles": (
        "[task]\nname = three-circles\nmode_file = h.json\nL = 2.5\nbeta = 5.0\n"
        "beta_prime = 0.3\ntriples = 0,1,3\n",
        {
            "task": {"name": "three-circles", "mode_file": "h.json", "L": 2.5,
                     "beta": 5.0, "beta_prime": 0.3, "triples": "0,1,3"},
        },
        ("L", 2.5),
    ),
}


def test_ini_and_json_configs_resolve_identically(tmp_path):
    for name, (ini_text, js_data, (key, value)) in INI_JSON_PAIRS.items():
        ini = tmp_path / f"{name}.ini"
        ini.write_text(ini_text)
        js = tmp_path / f"{name}.json"
        js.write_text(json.dumps(js_data))
        a = cli.resolve_config(cli._read_config_file(str(ini)), {})
        b = cli.resolve_config(cli._read_config_file(str(js)), {})
        assert a == b, name
        assert a.task[key] == value, name


# every task's resolved defaults, as the config block echoes them; the
# required keys of kernel-classify and three-circles are given
RESOLVED_DEFAULTS = {
    "spectrum": {
        "kinds": ["Scalar", "CoclosedOneForm", "HarmonicOneForm", "TTTensor"],
    },
    "solve-div": {"tau": 0.01, "mode_file": None, "n_modes": 6, "residual_tol": 1e-9},
    "solve-deform": {"tau": 0.0, "residual_tol": 1e-12},
    "kernel-classify": {"tau": 0.0, "mode_file": "h.json", "roundtrip_tol": 1e-12},
    "three-circles": {
        "mode_file": "h.json",
        "L": 1.0,
        "beta": 5.0,
        "beta_prime": 0.3,
        "triples": [[0, 1, 3]],
    },
    "validate": {
        "grid": [96, 12],
        "order": 4,
        "r_max": 6.0,
        "report": None,
        "remainder": False,
        "eps_list": [0.1, 0.03, 0.01],
    },
    "bound-fit": {
        "source_types": ["one_form", "pair"],
        "rho_fractions": [0.5, 0.8, 0.9, 0.95, 0.99],
        "caps": {"one_form": 1.15, "pair": 2.15},
    },
}

REQUIRED_GIVEN = {
    "kernel-classify": {"mode_file": "h.json"},
    "three-circles": {
        "mode_file": "h.json", "L": "1.0", "beta": "5.0", "beta_prime": "0.3",
        "triples": "0,1,3",
    },
}


def test_resolved_config_spells_out_every_default(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for name, task in RESOLVED_DEFAULTS.items():
        cfg = cli.resolve_config({"task": {"name": name, **REQUIRED_GIVEN.get(name, {})}}, {})
        assert cfg.task == {"name": name, **task}
        assert cfg.cross_section == {
            "dim": 3, "side_lengths": [1.0, 1.0, 1.0], "freq_cutoff": 1,
        }
        assert cfg.output == {"dir": ".", "envelope": f"{name}-envelope.json"}
        assert cfg.run == {"seed": 0, "log_level": "warning"}


COMMON_FLAGS = {"-h", "--help", "--config", "--out", "--seed", "--log-level"}
CROSS_SECTION_FLAGS = {"--dim", "--side-lengths", "--freq-cutoff"}
SUBCOMMAND_FLAGS = {
    "spectrum": {"--kinds"} | CROSS_SECTION_FLAGS,
    "solve-div": {"--tau", "--mode-file", "--modes"} | CROSS_SECTION_FLAGS,
    "solve-deform": {"--tau"} | CROSS_SECTION_FLAGS,
    "kernel-classify": {"--tau", "--mode-file"},
    "three-circles": {"--mode-file", "--L", "--beta", "--beta-prime", "--triples"},
    "validate": {"--grid", "--order", "--report", "--remainder"} | CROSS_SECTION_FLAGS,
    "bound-fit": {"--types", "--rho-fractions"} | CROSS_SECTION_FLAGS,
    "export": {"--envelope", "--kind", "--csv", "--series"},
}


def test_each_subcommand_takes_exactly_its_flags():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    assert list(subparsers.choices) == list(SUBCOMMAND_FLAGS)
    for name, sub in subparsers.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert flags == COMMON_FLAGS | SUBCOMMAND_FLAGS[name], name


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


def test_envelope_records_the_environment_outside_the_payload(tmp_path, monkeypatch):
    # 128 radial rows at order 2: validate's FD batch runs on slabs at two
    # threads and serially at one, with the same payload bytes
    argv = ["validate", "--grid", "128x8", "--order", "2", "--seed", "3"]
    stored = {}
    for threads in (2, 1):
        monkeypatch.setattr(O, "fd_threads", lambda: threads)
        out = tmp_path / str(threads)
        assert cli.main(argv + ["--out", str(out)]) in (0, 3)
        stored[threads] = json.loads((out / "validate-envelope.json").read_text())
        assert stored[threads]["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fd_threads": threads,
        }
    for block in ("payload", "certificates"):
        assert cli.canonical_json(stored[2][block]) == cli.canonical_json(stored[1][block])
    monkeypatch.undo()
    cfg = cli.resolve_config({"task": {"name": "spectrum"}}, {})
    assert cli.run_job(cfg)["environment"]["fd_threads"] == O.fd_threads()


def test_one_parser_serves_every_main_call_of_a_process(tmp_path, monkeypatch, capsys):
    """validate, spectrum and validate at another seed in one process give
    the exit codes, output and envelope bytes (but the wall time) of
    separate runs, and the help text of a fresh parser."""
    runs = [["validate", "--grid", "24x8", "--seed", "3"], ["spectrum"],
            ["validate", "--grid", "24x8", "--seed", "4"]]
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")

    def outputs(code, stdout, root, i):
        envelope = (root / f"out-{i}" / f"{runs[i][0]}-envelope.json").read_text()
        return code, stdout, re.sub(r'"timing_s":[^,}]*', '"timing_s":_', envelope)

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    separate = []
    for i, argv in enumerate(runs):
        root = tmp_path / f"separate-{i}"
        root.mkdir()
        done = subprocess.run([sys.executable, "-m", "cylspec.cli", *argv, "--out", f"out-{i}"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=300)
        separate.append(outputs(done.returncode, done.stdout, root, i))
    root = tmp_path / "one"
    root.mkdir()
    monkeypatch.chdir(root)
    for i, argv in enumerate(runs):
        code = cli.main(argv + ["--out", f"out-{i}"])
        assert outputs(code, capsys.readouterr().out, root, i) == separate[i]

    def helps():
        text = []
        for argv in (["--help"], ["validate", "--help"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
            text.append(capsys.readouterr().out)
        return text

    used = helps()
    cli._build_parser.cache_clear()
    assert used == helps()


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


@pytest.mark.parametrize(
    "power, rate, L, message",
    [
        # e^{+sqrt(mu_1) r} B: every tube of length 60 overflows
        (0, None, "60", "has no finite value"),
        # r e^{15 r} B is no reduced form; the gate stops it before any tube
        (1, 15.0, "25", "pure e^{+-sqrt(mu) r}"),
        # a tube length that is not finite is named before any tube
        (0, None, "nan", "tube length must be positive and finite, got L = nan"),
        (0, None, "inf", "tube length must be positive and finite, got L = inf"),
    ],
)
def test_main_three_circles_rejects_overflowing_fields(tmp_path, capsys, power, rate, L, message):
    tt = next(m for m in build_spectrum(CS, "TTTensor").modes if any(m.freq))
    rate = math.sqrt(tt.eigenvalue) if rate is None else rate
    h = F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, power, rate))
    mode_file = tmp_path / "h.json"
    mode_file.write_text(json.dumps(cli.field_to_dict(h)))
    code = cli.main(
        ["three-circles", "--mode-file", str(mode_file), "--L", L, "--beta", "0.5",
         "--beta-prime", "0.25", "--triples", "0,1,2", "--out", str(tmp_path)]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_main_missing_mode_file_exits_two(tmp_path, capsys):
    code = cli.main(["kernel-classify", "--mode-file", str(tmp_path / "no.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "freq, phase, message",
    [
        ((2, 0, 0), "cos", r"term 0: frequency \[2, 0, 0\] exceeds freq_cutoff 1"),
        ((-1, 0, 0), "cos", r"term 0: frequency \[-1, 0, 0\] is outside the canonical"),
    ],
)
def test_kernel_classify_rejects_mode_file_keys_outside_the_spectrum(
    tmp_path, capsys, freq, phase, message
):
    # a decaying TT mode, built where the spectrum has no slot for it
    tt = modes_at(CS, "TTTensor", freq, phase)[0]
    s = math.sqrt(tt.eigenvalue)
    h = F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, 0, -s))
    path = tmp_path / "h.json"
    path.write_text(json.dumps(cli.field_to_dict(h)))
    code = cli.main(["kernel-classify", "--mode-file", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ")
    assert re.search(message, err)


@pytest.mark.parametrize(
    "freq, phase, message",
    [
        ([1, 0], "cos", r"term 1: frequency \[1, 0\] needs 3 entries"),
        ([1.5, 0, 0], "cos", r"term 1: frequency \[1.5, 0, 0\] needs integer entries"),
        ([0, -1, 1], "sin", "outside the canonical half-space"),
        ([1, 1, -2], "cos", "exceeds freq_cutoff 1"),
        ([1, 0, 0], "tan", "phase must be cos or sin, got 'tan'"),
        ([0, 0, 0], "sin", "frequency zero carries no sin phase"),
    ],
)
def test_field_dict_rejects_keys_outside_the_mode_set(freq, phase, message):
    data = cli.field_to_dict(reduced_field())
    data["terms"][1].update(freq=freq, phase=phase)
    with pytest.raises(InvalidInput, match=message):
        cli.field_from_dict(data)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"power": 1.5}, r"term 1: power 1.5 is not a nonnegative integer"),
        ({"power": -1}, r"term 1: power -1 is not a nonnegative integer"),
        ({"power": "1"}, r"term 1: power '1' is not a nonnegative integer"),
        ({"power": None}, r"malformed value: int\(\) argument"),
        ({"power": math.inf}, r"malformed value: cannot convert float infinity"),
        ({"rate": math.nan}, r"term 1: rate nan is not finite"),
        ({"rate": -math.inf}, r"term 1: rate -inf is not finite"),
        ({"coeff": np.full((4, 4), math.nan).tolist()}, r"term 1: coefficient is not finite"),
        ({"coeff": [[0.0] * 4] * 3 + [[0.0, 0.0, 0.0, math.inf]]},
         r"term 1: coefficient is not finite"),
        ({"coeff": "abc"}, r"malformed value: could not convert string to float"),
        ({"freq": ["a", 0, 0]}, r"malformed value: invalid literal for int\(\)"),
    ],
    ids=["power-1.5", "power-negative", "power-string", "power-null", "power-inf", "rate-nan",
         "rate-minus-inf", "coeff-all-nan", "coeff-one-inf", "coeff-string", "freq-string"],
)
def test_field_dict_rejects_bad_profiles_and_coefficients(change, message):
    data = cli.field_to_dict(reduced_field())
    data["terms"][1].update(change)
    with pytest.raises(InvalidInput, match=message):
        cli.field_from_dict(data)


@pytest.mark.parametrize("task", [
    ["kernel-classify"],
    ["three-circles", "--L", "1", "--beta", "3", "--beta-prime", "0.1", "--triples", "0,1,2"],
])
def test_a_non_integer_power_exits_two(tmp_path, capsys, task):
    # r B_0, the parallel TT ramp: power 1.5 used to be read as 1 and certified
    b0 = build_spectrum(CS, "TTTensor").at((0, 0, 0))[0]
    data = cli.field_to_dict(F.from_mode_profile(CS, b0, RadialProfile.monomial(1.0, 1, 0.0)))
    data["terms"][0]["power"] = 1.5
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    code = cli.main([task[0], "--mode-file", str(path), *task[1:], "--out", str(tmp_path)])
    assert code == 2
    assert "term 0: power 1.5 is not a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("cross_section", "dim"), 3.7),
    (("cross_section", "freq_cutoff"), 1.9),
    (("rank",), 2.5),
], ids=["dim", "freq_cutoff", "rank"])
def test_field_file_integers_are_not_truncated(tmp_path, capsys, path, value):
    data = cli.field_to_dict(reduced_field())
    block = data if len(path) == 1 else data[path[0]]
    block[path[-1]] = value
    mode_file = tmp_path / "h.json"
    mode_file.write_text(json.dumps(data))
    code = cli.main(["kernel-classify", "--mode-file", str(mode_file), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"field file {'.'.join(path)}: {value!r} is not an integer" in err


# ---------------------------------------------------------------------------
# rates at the file boundary: read onto +-sqrt(mu) within 1e-9 * max(1, sqrt(mu))
# ---------------------------------------------------------------------------


def _run_on_moved_rates(tmp_path, h, rel, argv):
    """Run the task argv[0] on h, written to a field file with every rate
    multiplied by 1 + rel (every nonzero rate moves); return the exit code
    and the envelope's payload as canonical JSON (None if none was written)."""
    data = cli.field_to_dict(h)
    for term in data["terms"]:
        moved = term["rate"] * (1.0 + rel)
        assert moved != term["rate"] or term["rate"] == 0.0 or rel == 0.0
        term["rate"] = moved
    out = tmp_path / str(rel)
    out.mkdir()
    (out / "h.json").write_text(json.dumps(data))
    code = cli.main([argv[0], "--mode-file", str(out / "h.json"), *argv[1:], "--out", str(out)])
    envelope = out / f"{argv[0]}-envelope.json"
    payload = json.loads(envelope.read_text())["payload"] if envelope.exists() else None
    return code, None if payload is None else cli.canonical_json(payload)


@pytest.mark.parametrize("task", [
    ["kernel-classify"],
    ["three-circles", "--L", "1.0", "--beta", "5.0", "--beta-prime", "0.3",
     "--triples", "0,1,3;1,2,5"],
])
@pytest.mark.parametrize("rel", [1e-15, 1e-12])
def test_file_rates_moved_by_round_off_give_the_exact_payload(tmp_path, capsys, task, rel):
    # kernel-classify exits 0 only if its reconstruction residual is below 1e-12
    h = tc.random_reduced_form(CS, np.random.default_rng(1))
    exact = _run_on_moved_rates(tmp_path, h, 0.0, task)
    assert _run_on_moved_rates(tmp_path, h, rel, task) == exact
    assert exact[0] == 0, capsys.readouterr()


@pytest.mark.parametrize("rel", [1e-12, 9.9e-10])
def test_solve_div_reads_a_file_rate_next_to_minus_sqrt_mu(tmp_path, capsys, rel):
    phi = next(m for m in build_spectrum(CS, "Scalar").modes if any(m.freq))
    h = F.rr_tensor(CS, phi, RadialProfile.monomial(1.0, 0, -math.sqrt(phi.eigenvalue)))
    code, _ = _run_on_moved_rates(tmp_path, h, rel, ["solve-div"])
    assert code == 0, capsys.readouterr().err


def test_kernel_classify_names_a_file_rate_outside_the_window(tmp_path, capsys):
    # sides 2 pi: mu = 1, so the moved term passes the Ricci residual gate
    cs = TorusCrossSection(3, (2.0 * math.pi,) * 3, 1)
    tt = next(m for m in build_spectrum(cs, "TTTensor").modes if any(m.freq))
    h = F.from_mode_profile(cs, tt, RadialProfile.monomial(1.0, 0, -math.sqrt(tt.eigenvalue)))
    code, payload = _run_on_moved_rates(tmp_path, h, 1e-8, ["kernel-classify"])
    err = capsys.readouterr().err
    assert (code, payload) == (2, None)
    assert err.startswith(f"NotInKernel: frequency {tt.freq}: {tt.phase} term of power 0 ")
    assert "matches no kernel column" in err


@pytest.mark.parametrize(
    "argv, ini, key",
    [
        (["solve-div"], "[task]\ntau = abc\n", "task.tau"),
        (["spectrum"], "[run]\nseed = x\n", "run.seed"),
        (["spectrum", "--side-lengths", "1,a,1"], None, "cross-section.side_lengths"),
        (["validate", "--grid", "96"], None, "task.grid"),
        (["validate", "--grid", "48x8x2"], None, "task.grid"),
        (["three-circles", "--mode-file", "h.json", "--L", "1.0", "--beta", "5.0",
          "--beta-prime", "0.3", "--triples", "0,1,x"], None, "task.triples"),
        (["bound-fit"], "[task]\ncaps = 1.0\n", "task.caps"),
        (["validate"], "[task]\nremainder = maybe\n", "task.remainder"),
        (["spectrum"], "[run]\nlog_level = loud\n", "run.log_level"),
        (["spectrum", "--log-level", "loud"], None, "run.log_level"),
        (["spectrum", "--kinds="], None, "task.kinds"),
        (["bound-fit", "--types="], None, "task.source_types"),
        (["bound-fit", "--types=one_form,one_form"], None, "task.source_types"),
        (["three-circles", "--mode-file", "h.json", "--L", "1.0", "--beta", "5.0",
          "--beta-prime", "0.3", "--triples="], None, "task.triples"),
        (["spectrum"], "[run]\nthreads = 2\n", "run.threads"),
        (["solve-div", "--modes", "0"], None, "task.n_modes"),
        (["solve-div", "--modes", "-1"], None, "task.n_modes"),
    ],
    ids=["tau-abc", "seed-x", "side-lengths-1-a-1", "grid-96", "grid-48x8x2",
         "triples-0-1-x", "caps-scalar", "remainder-maybe", "log-level-loud-ini",
         "log-level-loud-flag", "kinds-empty", "types-empty", "types-repeated",
         "triples-empty", "threads-ini", "modes-0", "modes-minus-1"],
)
def test_bad_values_exit_two_naming_the_key(tmp_path, capsys, argv, ini, key):
    if ini is not None:
        cfg = tmp_path / "job.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{argv[0]}-envelope.json").exists()


@pytest.mark.parametrize("argv, bad", [
    (["spectrum", "--side-lengths", "nan,1,1"], "nan"),
    (["solve-deform", "--side-lengths", "inf,1,1"], "inf"),
], ids=["spectrum-nan", "solve-deform-inf"])
def test_non_finite_side_lengths_exit_two_naming_the_length(tmp_path, capsys, argv, bad):
    # NaN fails l <= 0 as it fails l > 0: spectrum used to exit 3 on a
    # certificate that its NaN eigenvalues failed, and solve-deform to exit 0
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"invalid input: side length 0 must be finite and strictly positive, got {bad}\n"
    assert not (tmp_path / f"{argv[0]}-envelope.json").exists()


def test_kernel_classify_rejects_a_field_file_with_a_nan_side_length(tmp_path, capsys):
    # it used to exit 1: "SVD did not converge in Linear Least Squares"
    data = cli.field_to_dict(tc.random_reduced_form(CS, np.random.default_rng(1)))
    data["cross_section"]["side_lengths"] = [float("nan"), 1.0, 1.0]
    (tmp_path / "h.json").write_text(json.dumps(data))
    code = cli.main(["kernel-classify", "--mode-file", str(tmp_path / "h.json"),
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "invalid input: side length 0 must be finite and strictly positive, got nan\n"
    assert not (tmp_path / "kernel-classify-envelope.json").exists()


T2_ARGS = ["--dim", "2", "--side-lengths", f"{2 * math.pi!r},{2 * math.pi!r}",
           "--freq-cutoff", "2"]  # T^2(2 pi): mu_1 = 1 = 4 (0.5)^2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel-classify", "--tau", "-1"], "tau must be finite and nonnegative"),
        (["kernel-classify", "--tau", "nan"], "tau must be finite and nonnegative"),
        (["kernel-classify", "--tau", "0.5"], "ResonantTau"),
        (["solve-div", "--tau", "nan"], "tau must be finite and nonnegative"),
        (["solve-div", "--tau", "inf"], "tau must be finite and nonnegative"),
        (["solve-deform", "--tau", "nan"], "tau must be finite and nonnegative"),
        (["solve-deform", "--tau", "inf"], "tau must be finite and nonnegative"),
        (["solve-deform", "--tau", "0.5", *T2_ARGS], "ResonantTau"),
    ],
    ids=["classify-minus-1", "classify-nan", "classify-resonant", "div-nan", "div-inf",
         "deform-nan", "deform-inf", "deform-resonant"],
)
def test_bad_or_resonant_tau_exits_two(tmp_path, capsys, argv, message):
    if argv[0] == "kernel-classify":
        cs = TorusCrossSection(2, (2 * math.pi, 2 * math.pi), 2)
        h = F.tangential_metric(cs).multiply_profile(RadialProfile.monomial(0.5, 1, 0.0))
        path = tmp_path / "h.json"
        path.write_text(json.dumps(cli.field_to_dict(h)))
        argv = argv + ["--mode-file", str(path)]
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / f"{argv[0]}-envelope.json").exists()


def test_bound_fit_rejects_a_nan_rho_fraction(tmp_path, capsys):
    code = cli.main(["bound-fit", "--rho-fractions", "0.5,nan,0.9", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input: ")
    assert "Traceback" not in err
    assert not (tmp_path / "bound-fit-envelope.json").exists()


def test_config_log_level_applies_unless_a_flag_overrides_it(tmp_path, caplog):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[run]\nlog_level = info\n")
    argv = ["validate", "--config", str(cfg), "--grid", "48x8",
            "--report", str(tmp_path / "report.json"), "--out", str(tmp_path)]
    try:
        assert cli.main(argv) == 0
        assert any("wrote residual report" in r.getMessage() for r in caplog.records)
        caplog.clear()
        assert cli.main(argv + ["--log-level", "warning"]) == 0
        assert not caplog.records
    finally:
        logging.getLogger("cylspec").setLevel(logging.NOTSET)


def test_validate_at_debug_level_prints_one_line_per_stage(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["validate", "--grid", "24x8", "--order", "2", "--remainder", "--log-level", "debug",
            "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "cylspec.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=300)
    assert done.returncode in (0, 3), done.stderr
    lines = [re.sub(r": \d+\.\d{3} ms$", ": _ ms", line)
             for line in done.stderr.splitlines() if line.startswith("DEBUG:")]
    stage = "DEBUG:cylspec:{}: grid 24x8x8x8: _ ms".format
    solve = "DEBUG:cylspec:{}: _ ms".format  # solve_gauge's own stages
    assert lines == [stage("sample"), stage("fd_operator linearized_ricci, order 2"),
                     solve("modified divergence"), solve("source tables, 24 terms"),
                     solve("batched solves, modes per sector: pair 4, coclosed 4, harmonic 0, "
                           "radial 0"),
                     stage("sample"), stage("fd_operator divergence, order 2"),
                     stage("quadratic_remainder_scan, order 2")]


def test_debug_logging_leaves_the_envelope_unchanged():
    """Every envelope byte but the wall time is the same with the stage
    lines logged and without them."""
    cfg = cli.resolve_config({"task": {"name": "validate", "grid": "24x8"}}, {"remainder": True})
    logger = logging.getLogger("cylspec")
    envelopes = []
    try:
        for level in (logging.DEBUG, logging.WARNING):
            logger.setLevel(level)
            envelope = cli.run_job(cfg)
            del envelope["timing_s"]
            envelopes.append(cli.canonical_json(envelope))
    finally:
        logger.setLevel(logging.NOTSET)
    assert envelopes[0] == envelopes[1]


def test_solve_div_at_debug_level_prints_one_line_per_stage(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["solve-div", "--seed", "1", "--log-level", "debug", "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "cylspec.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [re.sub(r": \d+\.\d{3} ms$", ": _ ms", line)
             for line in done.stderr.splitlines() if line.startswith("DEBUG:")]
    assert lines == ["DEBUG:cylspec:" + stage + ": _ ms" for stage in (
        "modified divergence", "source tables, 34 terms",
        "batched solves, modes per sector: pair 6, coclosed 5, harmonic 0, radial 0",
        "one-form", "residual")]


def test_importing_the_library_leaves_logging_unimported():
    """stages.stage reads ``logging`` only once something has imported it,
    so the library alone does not pay for it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cylspec; print('logging' in sys.modules)"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=300)
    assert done.stdout.strip() == "False", done.stderr


def test_debug_logging_leaves_the_solve_div_envelope_unchanged():
    cfg = cli.resolve_config({"task": {"name": "solve-div", "tau": 0.3}}, {})
    logger = logging.getLogger("cylspec")
    envelopes = []
    try:
        for level in (logging.DEBUG, logging.WARNING):
            logger.setLevel(level)
            envelope = cli.run_job(cfg)
            del envelope["timing_s"]
            envelopes.append(cli.canonical_json(envelope))
    finally:
        logger.setLevel(logging.NOTSET)
    assert envelopes[0] == envelopes[1]


def test_solve_div_names_the_mode_it_fails_on(tmp_path, capsys):
    phi = modes_at(CS, "Scalar", (1, 0, 0), "cos")[0]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(cli.field_to_dict(
        F.rr_tensor(CS, phi, RadialProfile.monomial(1.0, 0, 7.0)))))
    code = cli.main(["solve-div", "--tau", "0", "--mode-file", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: pair sector, mode ((1, 0, 0), 'cos'): global mixed source must decay "
        "strictly below rate sqrt(mu)\n")


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
    checks = {c["name"]: c for c in stored["checks"]}
    # both were zero on every input: FD partials of a constant metric
    assert "lichnerowicz-rough-identity" not in checks and "flat-ricci-sup" not in checks
    assert checks["gauge-divergence-fd"]["passed"] and checks["kernel-ricci-fd"]["passed"]
    assert all(c["passed"] for c in stored["checks"])


@pytest.mark.parametrize("threads", [1, 2])
def test_a_validate_item_drops_each_grid_once_its_value_is_read(tmp_path, monkeypatch, threads):
    """The traced peak of one item of validate on 64x8^3, from an empty
    recycler, is the FD batch with its input and scratch: 17.7 MB on two
    threads, 22.5 MB on one, with the certificates read on the band (17.9
    and 23.3 MB with full output grids).  With every stage's grids still
    live at the divergence stage it read 28.5 and 29.6 MB."""
    monkeypatch.setattr(O, "fd_threads", lambda: threads)
    argv = ["validate", "--grid", "64x8", "--dim", "3", "--seed", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0  # the modal caches fill outside the measurement
    O._forget_buffers()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_validate_remainder_slope_on_a_large_probe(tmp_path):
    # seed 1 draws a probe well above unit size; unscaled, eps = 0.1 left
    # the quadratic regime and the slope came out near 2.9 (exit 3)
    code = cli.main(
        ["validate", "--remainder", "--seed", "1", "--grid", "48x8", "--out", str(tmp_path)]
    )
    assert code == 0
    envelope = json.loads((tmp_path / "validate-envelope.json").read_text())
    assert 1.9 <= envelope["payload"]["remainder_scan"]["exponent"] <= 2.1


def test_validate_remainder_scan_runs_at_the_stencil_order(tmp_path, monkeypatch):
    probes = []
    scan = cli.quadratic_remainder_scan
    monkeypatch.setattr(cli, "quadratic_remainder_scan",
                        lambda h, *a: probes.append(h) or scan(h, *a))
    code = cli.main(["validate", "--order", "2", "--remainder", "--seed", "1",
                     "--grid", "48x8", "--out", str(tmp_path)])
    assert code == 0 and len(probes) == 1
    payload = json.loads((tmp_path / "validate-envelope.json").read_text())["payload"]
    assert payload["order"] == 2
    eps = payload["remainder_scan"]["epsilons"]
    want = O.quadratic_remainder_scan(probes[0], eps, O.StencilConfig(order=2))
    assert payload["remainder_scan"]["remainders"] == list(want.remainders)
    # the order-4 scan of the same probe differs, so the order is not ignored
    other = O.quadratic_remainder_scan(probes[0], eps, O.StencilConfig(order=4))
    assert other.remainders != want.remainders


def test_validate_on_a_grid_without_an_interior_band_exits_two(tmp_path, capsys):
    code = cli.main(["validate", "--grid", "10x8", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_r = 10" in err and "INTERIOR_TRIM" in err


@pytest.mark.parametrize("ini, message", [
    ("[task]\nr_max = inf\n", "r_range (0.0, inf) must be finite"),
    ("[task]\nr_max = 1e300\n", "squared is not finite"),
    ("[task]\nremainder = true\neps_list = 0.1, nan\n", "eps_list [0.1, nan]"),
], ids=["r-max-inf", "r-max-1e300", "eps-list-nan"])
def test_validate_rejects_non_finite_grids_and_eps_lists(tmp_path, capsys, ini, message):
    # r_max = inf exited 3 on two certificates, r_max = 1e300 exited 1 on an
    # OverflowError, and a NaN eps exited 1 inside the remainder fit
    cfg = tmp_path / "job.ini"
    cfg.write_text(ini)
    code = cli.main(["validate", "--grid", "48x8", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input: ") and message in err
    assert not (tmp_path / "validate-envelope.json").exists()


def test_validate_on_a_grid_below_eight_samples_exits_two(tmp_path, capsys):
    code = cli.main(["validate", "--grid", "1x12", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input: ") and "at least 8 samples" in err


@pytest.mark.parametrize("n_r, n_x", [(96, 12), (64, 8)])
def test_validate_fd_tolerance_is_ten_grid_spacings_squared(tmp_path, n_r, n_x):
    assert cli.main(["validate", "--grid", f"{n_r}x{n_x}", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "validate-envelope.json").read_text())["payload"]
    assert payload["fd_tolerance"] == 10.0 * max(6.0 / (n_r - 1), 1.0 / n_x) ** 2


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


@pytest.mark.parametrize("cs", [CS, TorusCrossSection(2, (2.0 * math.pi,) * 2, 2)])
@pytest.mark.parametrize("n_modes", [1, 6, 50])
def test_random_gauge_image_is_the_sum_of_its_pairs_bit_for_bit(cs, n_modes):
    # the source of solve-div without a mode file: one pair one-form per
    # picked mode, summed, drawing from the rng in the same order
    from cylspec.divergence_solver import lie_derivative_metric

    scalars = [m for m in build_spectrum(cs, "Scalar").modes if any(m.freq)]
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cli._random_gauge_image(cs, rng, n_modes)
        parts = []
        for i in ref_rng.choice(len(scalars), size=min(n_modes, len(scalars)), replace=False):
            s = math.sqrt(scalars[i].eigenvalue)
            k = RadialProfile.monomial(float(ref_rng.uniform(-1.0, 1.0)), 0, -s)
            l = RadialProfile.monomial(float(ref_rng.uniform(-1.0, 1.0)), 0, -0.5 * s)
            parts.append(F.pair_one_form(cs, scalars[i], k, l))
        want = lie_derivative_metric(F.sum_fields(cs, 1, parts))
        assert [(k, pk, C.tobytes()) for k, pk, C in got.terms()] == [
            (k, pk, C.tobytes()) for k, pk, C in want.terms()]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
