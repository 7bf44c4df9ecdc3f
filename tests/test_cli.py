"""Command-line interface, exercised in process through main(argv)."""

import argparse
import json
import re

import numpy as np
import pytest

from cornerlab import EigensolverError, ResidualError, TrackingError, invariants
from cornerlab.cli import _build_parser, main
from cornerlab.symbol import builtin_models, product_hamiltonian, qwz_model, save_model


def run(*argv):
    return main(list(argv))


def test_bulk_spectrum_writes_csv_and_svg(tmp_path, capsys):
    code = run("bulk-spectrum", "--builtin", "h1_example",
               "--t-grid", "16", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "bulk-spectrum: 2 bands" in out
    csv = (tmp_path / "bulk_spectrum.csv").read_text().strip().split("\n")
    assert csv[0] == "angle,lambda_0,lambda_1"
    assert len(csv) == 18
    svg = (tmp_path / "bulk_spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "generated" not in svg


def test_svg_has_no_timestamp(tmp_path):
    """An SVG depends only on the flags: no generation comment, same bytes."""
    args = ("bulk-spectrum", "--builtin", "h1_example", "--t-grid", "8")
    assert run(*args, "--out", str(tmp_path / "a")) == 0
    assert run(*args, "--out", str(tmp_path / "b")) == 0
    svg = (tmp_path / "a" / "bulk_spectrum.svg").read_bytes()
    assert svg.startswith(b"<svg") and b"<!--" not in svg
    assert (tmp_path / "b" / "bulk_spectrum.svg").read_bytes() == svg


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
               "--k-grid", "4", "--out", str(tmp_path))
    assert code == 0
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads((tmp_path / "edge_gap.json").read_text())
    assert doc["pass"] is False
    assert doc["threshold"] == invariants._EDGE_GAP_FLOOR
    assert doc["alpha_min"] < 1e-8


@pytest.mark.parametrize("args, written", [
    (("edge-gap", "--builtin", "product_example", "--W", "12", "--k-grid", "4"),
     ("edge_gap.json",)),
    (("corner-flow", "--builtin", "product_example", "--L", "10", "--t-grid", "16"),
     ("corner_flow.json", "corner_flow.svg")),
    (("report", "--builtin", "product_example", "--L", "8", "--W", "8", "--t-grid", "8",
      "--k-grid", "2", "--h1", "h1_example", "--h2", "h2_example"), ("report.json",)),
], ids=["edge-gap", "corner-flow", "report"])
def test_json_is_deterministic(tmp_path, args, written):
    """Identical flags give byte-identical documents, run after run."""
    args = args + ("--out", str(tmp_path))
    assert run(*args) == 0
    first = [(tmp_path / name).read_bytes() for name in written]
    assert run(*args) == 0
    assert [(tmp_path / name).read_bytes() for name in written] == first


def test_corner_flow_small_product(tmp_path, capsys):
    code = run("corner-flow", "--builtin", "product_example", "--L", "10",
               "--t-grid", "16", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "spectral flow = 1" in out
    doc = json.loads((tmp_path / "corner_flow.json").read_text())
    assert doc["spectral_flow"] == 1
    tracked, rows = map(int, re.search(r"(\d+) tracked crossings in (\d+) rows", out).groups())
    assert tracked == sum(c["multiplicity"] for c in doc["crossings"])
    assert rows == len(doc["crossings"])
    assert doc["edge_gaps"][0] > 0.9 and doc["edge_gaps"][1] > 0.9
    ups = [c for c in doc["crossings"]
           if c["direction"] == 1 and max(c["member_weights"], default=0) >= 0.6]
    assert len(ups) == 1
    for c in doc["crossings"]:
        assert {k: type(v).__name__ for k, v in c.items()} == {
            "t": "float", "direction": "int", "multiplicity": "int", "weight": "float",
            "member_weights": "list"}
        assert len(c["member_weights"]) == c["multiplicity"]
        assert all(type(w) is float for w in c["member_weights"])
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


def test_sweep_axis_out_of_range_exits_2(tmp_path, capsys):
    assert run("bulk-spectrum", "--builtin", "h1_example", "--sweep-axis", "5",
               "--out", str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == {"type": "ModelError",
                            "message": "sweep axis 5 out of range for dim 2"}


@pytest.mark.parametrize("error", [EigensolverError, TrackingError, ResidualError])
def test_numerical_errors_exit_3(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("solver trouble")

    monkeypatch.setattr(invariants, "corner_spectral_flow", fail)
    assert run("corner-flow", "--builtin", "product_example",
               "--out", str(tmp_path)) == 3
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": {"type": error.__name__, "message": "solver trouble"}}
    assert not (tmp_path / "corner_flow.json").exists()


def test_non_finite_model_file_exits_2(tmp_path, capsys):
    """A NaN on-site entry is refused when the file is loaded, before any
    band is computed from it."""
    bad = tmp_path / "nan.json"
    bad.write_text('{"dim": 1, "norb": 1, "hoppings": '
                   '[{"offset": [0], "block": [[[NaN, 0]]]}]}')
    assert run("bulk-spectrum", "--model", str(bad), "--out", str(tmp_path)) == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"]["type"] == "ModelError"
    assert "non-finite" in err["error"]["message"]
    assert not (tmp_path / "bulk_spectrum.csv").exists()


def test_report_resolves_every_name_in_one_catalog(tmp_path, capsys, monkeypatch):
    """``report --model FILE --h1 NAME --h2 NAME`` builds the builtin catalog
    once for its three names, not once per name."""
    from cornerlab import GapClosedError, invariants, symbol

    calls = []
    catalog = symbol.builtin_models

    def counted():
        calls.append(1)
        return catalog()

    def stop(sym, pair, *, factors, **kwargs):
        assert [f.dim for f in factors[:2]] == [2, 1] and factors[2] is not None
        raise GapClosedError("stop after loading")

    path = tmp_path / "m.json"
    save_model(catalog()["product_example"].symbol, path)
    monkeypatch.setattr(symbol, "builtin_models", counted)
    monkeypatch.setattr(invariants, "compute_report", stop)
    assert run("report", "--model", str(path), "--h1", "h1_example", "--h2", "h2_example",
               "--out", str(tmp_path)) == 4
    assert "stop after loading" in capsys.readouterr().out
    assert len(calls) == 1


def test_model_flag_xor(tmp_path, capsys):
    assert run("edge-gap") == 2
    capsys.readouterr()
    save_model(builtin_models()["product_example"].symbol, tmp_path / "m.json")
    assert run("edge-gap", "--model", str(tmp_path / "m.json"),
               "--builtin", "product_example") == 2


def test_config_validation_exits_2():
    assert run("corner-flow", "--builtin", "product_example", "--t-grid", "2") == 2


@pytest.mark.parametrize("args, flag", [
    (("corner-flow", "--L", "0"), "L"),
    (("edge-gap", "--W", "0"), "W"),
    (("edge-gap", "--k-grid", "1"), "k-grid"),
    (("corner-flow", "--seed", "-1"), "seed"),
], ids=["L", "W", "k-grid", "seed"])
def test_lattice_sizes_refused_before_any_work(tmp_path, capsys, args, flag):
    assert run(*args, "--builtin", "product_example", "--out", str(tmp_path)) == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["type"] == "ModelError"
    assert err["error"]["message"].startswith(f"{flag} must be at least")
    assert not list(tmp_path.iterdir())


MODEL = {"--model", "--builtin", "--seed"}
SLOPES = {"--alpha", "--beta"}
FLOW = {"--L", "--t-grid"}


@pytest.mark.parametrize("command, flags", [
    ("bulk-spectrum", MODEL | {"--t-grid", "--sweep-axis", "--out"}),
    ("edge-gap", MODEL | SLOPES | {"--W", "--k-grid", "--out"}),
    ("corner-flow", MODEL | SLOPES | FLOW | {"--out"}),
    ("verify-product", {"--h1", "--h2"} | SLOPES | FLOW | {"--out"}),
    ("report", MODEL | SLOPES | FLOW | {"--W", "--k-grid", "--h1", "--h2", "--out"}),
])
def test_each_subcommand_takes_only_the_flags_it_reads(command, flags):
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    taken = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
    assert taken - {"-h", "--help"} == flags


@pytest.mark.parametrize("args", [
    ("verify-product", "--h1", "h1_example", "--h2", "h2_example", "--seed", "3"),
    ("edge-gap", "--builtin", "product_example", "--t-grid", "8"),
    ("bulk-spectrum", "--builtin", "product_example", "--L", "8"),
    ("corner-flow", "--builtin", "product_example", "--mask-threshold", "1.5"),
    ("verify-product", "--h1", "h1_example", "--h2", "h2_example", "--mask-threshold", "0.6"),
    ("report", "--builtin", "product_example", "--mask-threshold", "0.6"),
    ("corner-flow", "--builtin", "product_example", "--window", "0.3"),
    ("verify-product", "--h1", "h1_example", "--h2", "h2_example", "--window", "0.3"),
    ("report", "--builtin", "product_example", "--window", "0.3"),
    ("edge-gap", "--builtin", "product_example", "--gap-threshold", "0.5"),
    ("bulk-spectrum", "--builtin", "h1_example", "--no-timestamps"),
    ("corner-flow", "--builtin", "product_example", "--no-timestamps"),
], ids=["verify-product-seed", "edge-gap-t-grid", "bulk-spectrum-L", "corner-flow-mask-threshold",
        "verify-product-mask-threshold", "report-mask-threshold", "corner-flow-window",
        "verify-product-window", "report-window", "edge-gap-gap-threshold",
        "bulk-spectrum-no-timestamps", "corner-flow-no-timestamps"])
def test_a_flag_the_subcommand_does_not_read_is_refused(args):
    with pytest.raises(SystemExit) as info:
        run(*args)
    assert info.value.code == 2


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


@pytest.mark.parametrize("factor", [("--h1", "h1_example"), ("--h2", "h2_example")],
                         ids=["h1-alone", "h2-alone"])
def test_report_refuses_one_factor_without_the_other(tmp_path, capsys, factor):
    code = run("report", "--builtin", "product_example", "--L", "8", "--W", "8",
               "--t-grid", "8", "--k-grid", "2", *factor, "--out", str(tmp_path))
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"]["type"] == "ModelError"
    assert "--h1 and --h2" in err["error"]["message"]
    assert not (tmp_path / "report.json").exists()


def test_report_skips_corner_for_gapless_edge(tmp_path):
    code = run("report", "--builtin", "h1_stacked", "--L", "10",
               "--t-grid", "8", "--W", "12", "--k-grid", "4",
               "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())["report"]
    assert doc["corner_sf"] is None
    assert doc["weak"] == [0, 0, 1]
    assert "not Fredholm" in doc["provenance"]["corner_skipped"]


def test_report_aborts_on_a_refusal_inside_the_corner_flow(tmp_path, capsys):
    """Only the report's own edge scan is recorded as ``corner_skipped``; a
    GapClosedError raised by the corner flow itself ends the report with
    exit 4 and no file.  Here the report's 3 x 3 scan misses k = pi and
    reads both gaps above 1, while the flow's own 8 x 8 scan finds 0.05."""
    h2 = builtin_models()["h2_example"]
    model = tmp_path / "m.json"
    save_model(product_hamiltonian(qwz_model(1.95), h2.symbol, h2.grading), model)
    assert run("edge-gap", "--model", str(model), "--W", "8", "--k-grid", "3",
               "--out", str(tmp_path / "scan")) == 0
    assert "PASS" in capsys.readouterr().out
    code = run("report", "--model", str(model), "--L", "8", "--W", "8",
               "--t-grid", "8", "--k-grid", "3", "--out", str(tmp_path))
    assert code == 4
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"]["type"] == "GapClosedError"
    assert "below the floor" in err["error"]["message"]
    assert not (tmp_path / "report.json").exists()


def test_model_file_roundtrip_through_cli(tmp_path, capsys):
    path = tmp_path / "prod.json"
    save_model(builtin_models()["product_example"].symbol, path)
    code = run("edge-gap", "--model", str(path), "--W", "12", "--k-grid", "4",
               "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_seeded_perturbation_changes_spectrum(tmp_path):
    base = ("bulk-spectrum", "--builtin", "product_example", "--t-grid", "8")
    assert run(*base, "--out", str(tmp_path / "a")) == 0
    assert run(*base, "--seed", "3", "--out", str(tmp_path / "b")) == 0
    csv_a = np.loadtxt(tmp_path / "a" / "bulk_spectrum.csv",
                       delimiter=",", skiprows=1)
    csv_b = np.loadtxt(tmp_path / "b" / "bulk_spectrum.csv",
                       delimiter=",", skiprows=1)
    assert csv_a.shape == csv_b.shape
    assert np.max(np.abs(csv_a[:, 1:] - csv_b[:, 1:])) > 1e-3
