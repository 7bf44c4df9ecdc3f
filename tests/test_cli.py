"""Command-line interface, exercised in process through main(argv)."""

import json

import numpy as np
import pytest

from cornerlab.cli import main
from cornerlab.symbol import builtin_models, save_model


def run(*argv):
    return main(list(argv))


def test_bulk_spectrum_writes_csv_and_svg(tmp_path, capsys):
    code = run("bulk-spectrum", "--builtin", "h1_example",
               "--t-grid", "16", "--out", str(tmp_path), "--no-timestamps")
    assert code == 0
    out = capsys.readouterr().out
    assert "bulk-spectrum: 2 bands" in out
    csv = (tmp_path / "bulk_spectrum.csv").read_text().strip().split("\n")
    assert csv[0] == "angle,lambda_0,lambda_1"
    assert len(csv) == 18
    svg = (tmp_path / "bulk_spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "generated" not in svg


def test_svg_timestamp_toggle(tmp_path):
    assert run("bulk-spectrum", "--builtin", "h1_example", "--t-grid", "8",
               "--out", str(tmp_path)) == 0
    assert "<!-- generated" in (tmp_path / "bulk_spectrum.svg").read_text()


def test_edge_gap_pass_and_json(tmp_path, capsys):
    code = run("edge-gap", "--builtin", "product_example", "--W", "16",
               "--k-grid", "6", "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads((tmp_path / "edge_gap.json").read_text())
    assert doc["pass"] is True
    assert min(doc["alpha_min"], doc["beta_min"]) > 0.9
    assert doc["config"]["builtin"] == "product_example"
    assert doc["config"]["W"] == 16
    assert "version" in doc


def test_edge_gap_fail_still_exits_zero(tmp_path, capsys):
    """A failed gap check is a valid measurement, not a tool error."""
    code = run("edge-gap", "--builtin", "h1_stacked", "--W", "12",
               "--k-grid", "4", "--gap-threshold", "0.5", "--out", str(tmp_path))
    assert code == 0
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads((tmp_path / "edge_gap.json").read_text())
    assert doc["pass"] is False
    assert doc["alpha_min"] < 1e-8


def test_edge_gap_json_is_deterministic(tmp_path):
    """Identical flags give byte-identical JSON, run after run."""
    args = ("edge-gap", "--builtin", "product_example", "--W", "12",
            "--k-grid", "4", "--out", str(tmp_path))
    assert run(*args) == 0
    first = (tmp_path / "edge_gap.json").read_bytes()
    assert run(*args) == 0
    second = (tmp_path / "edge_gap.json").read_bytes()
    assert first == second


def test_corner_flow_small_product(tmp_path, capsys):
    code = run("corner-flow", "--builtin", "product_example", "--L", "10",
               "--t-grid", "16", "--out", str(tmp_path), "--no-timestamps")
    assert code == 0
    assert "spectral flow = 1" in capsys.readouterr().out
    doc = json.loads((tmp_path / "corner_flow.json").read_text())
    assert doc["spectral_flow"] == 1
    assert doc["edge_gaps"][0] > 0.9 and doc["edge_gaps"][1] > 0.9
    ups = [c for c in doc["crossings"]
           if c["direction"] == 1 and max(c["member_weights"], default=0) >= 0.6]
    assert len(ups) == 1
    svg = (tmp_path / "corner_flow.svg").read_text()
    assert 'fill="#d62728"' in svg  # corner-localized branch highlighted


def test_corner_flow_gapless_edge_exits_4(tmp_path, capsys):
    code = run("corner-flow", "--builtin", "h1_stacked", "--L", "10",
               "--t-grid", "8", "--out", str(tmp_path))
    assert code == 4
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "GapClosedError"
    assert not (tmp_path / "corner_flow.json").exists()


def test_unknown_model_exits_2(tmp_path, capsys):
    code = run("edge-gap", "--builtin", "no_such_model")
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["type"] == "ModelError"
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "norb": 1, "hoppings": [{"block": [[[1, 0]]]}]}')
    assert run("bulk-spectrum", "--model", str(bad), "--out", str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["type"] == "ModelError"


def test_model_flag_xor(tmp_path, capsys):
    assert run("edge-gap") == 2
    capsys.readouterr()
    save_model(builtin_models()["product_example"].symbol, tmp_path / "m.json")
    assert run("edge-gap", "--model", str(tmp_path / "m.json"),
               "--builtin", "product_example") == 2


def test_config_validation_exits_2():
    assert run("corner-flow", "--builtin", "product_example",
               "--mask-threshold", "1.5") == 2
    assert run("edge-gap", "--builtin", "product_example", "--t-grid", "2") == 2
    assert run("corner-flow", "--builtin", "product_example", "--L", "12",
               "--t-grid", "8", "--window", "nan") == 2
    assert run("corner-flow", "--builtin", "product_example", "--L", "12",
               "--t-grid", "8", "--window", "inf") == 4
    for bad in ("nan", "inf", "-1"):
        assert run("edge-gap", "--builtin", "product_example", "--W", "8",
                   "--k-grid", "2", "--gap-threshold", bad) == 2


def test_negative_slopes_as_separate_values(tmp_path, capsys):
    """"-inf" and "-1/2" after --alpha are slope values, not options."""
    code = run("corner-flow", "--builtin", "product_example", "--alpha", "-inf",
               "--beta", "1/3", "--L", "10", "--t-grid", "8", "--out", str(tmp_path))
    assert code == 4  # the tilted beta edge of the product model is gapless
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "GapClosedError"
    code = run("edge-gap", "--builtin", "product_example", "--alpha", "-1/2",
               "--beta", "3", "--W", "12", "--k-grid", "4", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "edge_gap.json").read_text())
    assert (doc["config"]["alpha"], doc["config"]["beta"]) == ("-1/2", "3")
    with pytest.raises(SystemExit) as info:
        run("edge-gap", "--builtin", "product_example", "--alpha")
    assert info.value.code == 2


def test_verify_product_requires_grading(capsys):
    code = run("verify-product", "--h1", "h1_example", "--h2", "h1_trivial",
               "--L", "8", "--t-grid", "8")
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert "grading" in err["error"]["message"]


def test_verify_product_small(tmp_path, capsys):
    code = run("verify-product", "--h1", "h1_example", "--h2", "h2_example",
               "--L", "10", "--t-grid", "16", "--out", str(tmp_path))
    assert code == 0
    assert "VERIFIED" in capsys.readouterr().out
    doc = json.loads((tmp_path / "verify_product.json").read_text())
    assert doc["equal"] is True
    assert doc["lhs"] == doc["rhs"] == 1
    assert doc["i_2d"] == doc["i_1d"] == -1
    assert doc["pair"] == [2, 1]


def test_report_with_factors(tmp_path):
    code = run("report", "--builtin", "product_example", "--L", "10",
               "--t-grid", "16", "--W", "16", "--k-grid", "6",
               "--h1", "h1_example", "--h2", "h2_example",
               "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())["report"]
    assert doc["corner_sf"] == 1
    assert doc["chern_2dA"] == -1
    assert doc["winding_1dAIII"] == -1
    assert doc["kernel_signature"] == -1
    assert doc["weak"] == [0, 0, 0]
    assert doc["bulk_edge_pair"] == [2, 1]


def test_report_skips_corner_for_gapless_edge(tmp_path):
    code = run("report", "--builtin", "h1_stacked", "--L", "10",
               "--t-grid", "8", "--W", "12", "--k-grid", "4",
               "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())["report"]
    assert doc["corner_sf"] is None
    assert doc["weak"] == [0, 0, 1]
    assert "not Fredholm" in doc["provenance"]["corner_skipped"]


def test_model_file_roundtrip_through_cli(tmp_path, capsys):
    path = tmp_path / "prod.json"
    save_model(builtin_models()["product_example"].symbol, path)
    code = run("edge-gap", "--model", str(path), "--W", "12", "--k-grid", "4",
               "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_seeded_perturbation_changes_spectrum(tmp_path):
    base = ("bulk-spectrum", "--builtin", "product_example", "--t-grid", "8")
    assert run(*base, "--out", str(tmp_path / "a"), "--no-timestamps") == 0
    assert run(*base, "--seed", "3", "--out", str(tmp_path / "b"),
               "--no-timestamps") == 0
    csv_a = np.loadtxt(tmp_path / "a" / "bulk_spectrum.csv",
                       delimiter=",", skiprows=1)
    csv_b = np.loadtxt(tmp_path / "b" / "bulk_spectrum.csv",
                       delimiter=",", skiprows=1)
    assert csv_a.shape == csv_b.shape
    assert np.max(np.abs(csv_a[:, 1:] - csv_b[:, 1:])) > 1e-3
