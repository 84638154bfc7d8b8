"""Every certificate the CLI emits can fail: each name that cli.py hands
to _cert has a case here on which its run exits 3 and prints
``FAIL <name>``.  A name built from a format string is known by its
literal prefix, such as ``three-circles(``.

A case fails either through a real input (a tolerance set below the
round-off its value sits at, a remainder scan outside the quadratic
regime, a cap below the fitted exponent), or, where every valid input
passes, through one monkeypatched defect in what the certificate checks.
"""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

from cylspec import cli
from cylspec import fields as F
from cylspec import three_circles as tc
from cylspec.cross_section import TorusCrossSection, build_spectrum
from cylspec.mode_ode import RadialProfile

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "cylspec" / "cli.py"

CS = TorusCrossSection(3, (1.0, 1.0, 1.0), 1)


def _cert_names(tree):
    """The name of every _cert call: a string literal whole, and an
    f-string or a literal's .format(...) up to its first field."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_cert"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value
        elif isinstance(arg, ast.JoinedStr) and isinstance(arg.values[0], ast.Constant):
            yield arg.values[0].value
        elif (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
              and arg.func.attr == "format" and isinstance(arg.func.value, ast.Constant)):
            yield arg.func.value.value.split("{")[0]
        else:
            yield f"<a name this test cannot read, line {node.lineno}>"


def _config(tmp_path, text):
    path = tmp_path / "job.cfg"
    path.write_text(text)
    return ["--config", str(path)]


def _field_file(tmp_path, h):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(cli.field_to_dict(h)))
    return str(path)


def _gauge_residual(tmp_path, monkeypatch):
    return ["solve-div", *_config(tmp_path, "[task]\nname = solve-div\nresidual_tol = 1e-20\n")]


def _kernel_residuals(tmp_path, monkeypatch):
    # the kernel basis of solve-deform sits at round-off, not at 0
    return ["solve-deform",
            *_config(tmp_path, "[task]\nname = solve-deform\nresidual_tol = 1e-20\n")]


def _reconstruction(tmp_path, monkeypatch):
    h = tc.random_reduced_form(CS, np.random.default_rng(1))
    return ["kernel-classify", "--mode-file", _field_file(tmp_path, h),
            *_config(tmp_path, "[task]\nname = kernel-classify\nroundtrip_tol = 0\n")]


def _three_circles(tmp_path, monkeypatch):
    # the r-linear rate cap raised 5%: beta' 2% over the true cap passes
    # the gate, and the pure r-linear mode breaks the long triple
    cap = tc.rate_cap
    monkeypatch.setattr(tc, "rate_cap", lambda L, t2, t3: 1.05 * cap(L, t2, t3))
    b0 = build_spectrum(CS, "TTTensor").at((0, 0, 0))[0]
    h = F.from_mode_profile(CS, b0, RadialProfile.monomial(1.0, 1, 0.0))
    return ["three-circles", "--mode-file", _field_file(tmp_path, h), "--L", "1.0",
            "--beta", "5.0", "--beta-prime", repr(1.02 * cap(1.0, 1, 60)),
            "--triples", "0,1,60"]


def _kernel_ricci_fd(tmp_path, monkeypatch):
    # the probe carries a TT mode at half its kernel rate, which the
    # linearized Ricci operator does not annihilate
    draw = cli.random_reduced_form

    def off_kernel(cs, rng, **kwargs):
        tt = next(m for m in build_spectrum(cs, "TTTensor").modes if any(m.freq))
        rate = -0.5 * math.sqrt(tt.eigenvalue)
        return draw(cs, rng, **kwargs) + F.from_mode_profile(
            cs, tt, RadialProfile.monomial(1.0, 0, rate))

    monkeypatch.setattr(cli, "random_reduced_form", off_kernel)
    return ["validate", "--grid", "48x8"]


def _gauge_divergence_fd(tmp_path, monkeypatch):
    # one pair profile of the solved gauge with its sign flipped; on the
    # default grid the FD divergence reads about 1.06 against 0.069
    solve = cli.solve_gauge

    def flipped(h, config):
        gauge = solve(h, config)
        key = max(gauge.pairs)
        k, l = gauge.pairs[key]
        gauge.pairs[key] = (-k, l)
        return gauge

    monkeypatch.setattr(cli, "solve_gauge", flipped)
    return ["validate"]


def _remainder_slope(tmp_path, monkeypatch):
    # eps up to the probe's own size leaves the quadratic regime
    return ["validate", "--remainder", "--grid", "48x8",
            *_config(tmp_path, "[task]\nname = validate\neps_list = 1.0, 0.5, 0.25\n")]


def _blow_up_exponent(tmp_path, monkeypatch):
    caps = {"task": {"name": "bound-fit", "caps": {"one_form": 0.5, "pair": 1.0}}}
    return ["bound-fit", *_config(tmp_path, json.dumps(caps))]


CASES = {
    "gauge-residual": _gauge_residual,
    "kernel-ricci-residual": _kernel_residuals,
    "kernel-divergence-residual": _kernel_residuals,
    "reconstruction-residual": _reconstruction,
    "three-circles(": _three_circles,
    "kernel-ricci-fd": _kernel_ricci_fd,
    "gauge-divergence-fd": _gauge_divergence_fd,
    "remainder-slope": _remainder_slope,
    "blow-up-exponent(": _blow_up_exponent,
}


def test_every_certificate_name_has_a_failing_case():
    assert sorted(set(_cert_names(ast.parse(CLI.read_text())))) == sorted(CASES)


def test_the_reader_sees_literal_formatted_and_format_names():
    tree = ast.parse(
        "_cert('gauge-residual', r, '<=', tol)\n"
        "_cert(f'blow-up-exponent({kind})', e, '<=', cap)\n"
        "_cert('three-circles({},{},{})'.format(*triple), s, '>=', 1.0)\n"
        "_cert(name, v, '<=', 1.0)\n"
        "cert('not-a-certificate', v, '<=', 1.0)\n"
    )
    assert list(_cert_names(tree)) == [
        "gauge-residual", "blow-up-exponent(", "three-circles(",
        "<a name this test cannot read, line 4>",
    ]


@pytest.mark.parametrize("name", list(CASES))
def test_each_certificate_fails_on_its_case(name, tmp_path, monkeypatch, capsys):
    argv = CASES[name](tmp_path, monkeypatch)
    code = cli.main(argv + ["--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert f"\nFAIL {name}" in "\n" + out
