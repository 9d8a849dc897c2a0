"""End-to-end tests of the command-line interface via main(argv)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omx
from omx import core, geometry, pulsed, spectra, table
from omx.cli import main
from omx.constants import angular_to_hz


@pytest.fixture(autouse=True)
def clean_preset_env(monkeypatch):
    monkeypatch.delenv("OMX_PRESET_DIR", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def parse_csv(text: str):
    lines = [l for l in text.splitlines() if l]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDeviceCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "device", "list")
        assert code == 0
        assert out.split() == ["A", "B"]

    def test_show_reports_measured_parameters(self, capsys):
        code, out, _ = run(capsys, "device", "show", "A")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["kappa_hz"]) == pytest.approx(0.8e9, rel=1e-12)
        assert float(kv["omega_m_hz"]) == pytest.approx(7.436e9, rel=1e-12)
        assert float(kv["g0_hz"]) == pytest.approx(901e3, rel=1e-12)
        assert float(kv["q_m"]) == pytest.approx(7.436e9 / 206e3, rel=1e-12)
        assert kv["sideband_resolved"] == "true"

    def test_show_unknown_device(self, capsys):
        code, _, err = run(capsys, "device", "show", "Q")
        assert code == 2
        assert "unknown device" in err

    def test_show_requires_label(self, capsys):
        code, _, err = run(capsys, "device", "show")
        assert code == 2
        assert "label" in err

    def test_export_without_a_path(self, capsys):
        assert run(capsys, "device", "export", "A") == (
            2, "", "error: device export requires an output path\n")

    def test_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "exported.json"
        code, _, _ = run(capsys, "device", "export", "B", str(path))
        assert code == 0
        loaded = core.load_device(str(path))
        assert loaded.mechanical.omega_m == pytest.approx(
            core.DEVICE_PRESETS["B"].mechanical.omega_m, rel=1e-12
        )

    def test_preset_dir_shadows_and_extends(self, capsys, tmp_path, monkeypatch):
        data = core.device_to_json(core.DEVICE_PRESETS["A"])
        data["g0_hz"] = 123456.0
        (tmp_path / "A.json").write_text(json.dumps(data))
        data["label"] = "C"
        (tmp_path / "C.json").write_text(json.dumps(data))
        monkeypatch.setenv("OMX_PRESET_DIR", str(tmp_path))

        code, out, _ = run(capsys, "device", "list")
        assert code == 0
        assert out.split() == ["A", "B", "C"]

        code, out, _ = run(capsys, "device", "show", "A")
        assert code == 0
        assert float(parse_kv(out)["g0_hz"]) == pytest.approx(123456.0, rel=1e-12)


    def test_list_skips_files_that_are_not_devices(self, capsys, tmp_path, monkeypatch):
        core.save_device(core.DEVICE_PRESETS["A"], tmp_path / "C.json")
        geometry.save_design(geometry.DESIGN_PRESETS["B"], tmp_path / "Z.json")
        monkeypatch.setenv("OMX_PRESET_DIR", str(tmp_path))
        code, out, err = run(capsys, "device", "list")
        assert (code, out.split(), err) == (0, ["A", "B", "C"], "")


class TestCoolCurveCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "cool-curve", "--device", "A",
                           "--nc-min", "0.001", "--nc-max", "1e4",
                           "--points", "40")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n_c", "C", "gamma_eff_hz", "n_m", "t_eff_k"]
        assert len(rows) == 40
        # negligible drive: occupancy sits at the thermal baseline
        assert float(rows[0][3]) == pytest.approx(7.95, rel=1e-3)
        n_c = float(rows[20][0])
        expected = core.heating_model_occupancy(
            core.DEVICE_PRESETS["A"], core.DEFAULT_HEATING, n_c
        )
        assert float(rows[20][3]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, fmt):
        """The columns are computed a chunk at a time (``table.Rows``), with the
        bytes of the whole-array table at any chunk size; the rows outrun the
        grid-axis sample and are a multiple of no chunk size tried."""
        points = table._REPEAT_SAMPLE + 617
        device, heating = core.DEVICE_PRESETS["A"], core.DEFAULT_HEATING
        curve = core.cooling_curve(device, heating, np.geomspace(0.01, 1e4, points))
        t_eff = core.temperature_from_occupancy(device.mechanical.omega_m, curve.n_m)
        want = tmp_path / "whole"
        table.write_table({"n_c": curve.n_c, "C": curve.cooperativity,
                           "gamma_eff_hz": angular_to_hz(curve.gamma_eff), "n_m": curve.n_m,
                           "t_eff_k": t_eff}, want, fmt)
        for rows in (1000, table.CHUNK_ROWS, 16384):
            monkeypatch.setattr(table, "CHUNK_ROWS", rows)
            path = tmp_path / f"{rows}.{fmt}"
            assert main(["cool-curve", "--points", str(points), "--format", fmt,
                         "--out", str(path)]) == 0
            assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("argv,text", [
        (["--nc-max", "1e290"], "n_c = 1e+290 overflows the cooling curve"),
        (["--nc-min", "1", "--nc-max", "1.0000000000000002", "--points", "1000"],
         "n_c grid must be strictly increasing"),
        (["--heating", "{spec}"], "occupancy must be positive"),
    ], ids=["overflow", "repeated-n_c", "zero-occupancy"])
    def test_a_failing_curve_opens_no_out_file(self, capsys, tmp_path, argv, text):
        """The grid and the occupancy are checked whole before --out is opened,
        though the table is computed as it is written."""
        spec = tmp_path / "cold.json"
        spec.write_text('{"n_th0": 0}')  # no bath at all: n_m = 0, no temperature
        path = tmp_path / "curve.csv"
        code, out, err = run(capsys, "cool-curve", *[a.replace("{spec}", str(spec)) for a in argv],
                             "--out", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: {text}")
        assert not path.exists()

    def test_zero_heating_monotone(self, capsys):
        code, out, _ = run(capsys, "cool-curve", "--heating", "zero",
                           "--nc-min", "1", "--nc-max", "1e4", "--points", "30")
        assert code == 0
        _, rows = parse_csv(out)
        occ = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(occ, occ[1:]))

    def test_json_matches_csv(self, capsys):
        argv = ["cool-curve", "--nc-min", "1", "--nc-max", "100", "--points", "7"]
        code, out_csv, _ = run(capsys, *argv)
        assert code == 0
        code, out_json, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        _, rows = parse_csv(out_csv)
        data = json.loads(out_json)
        for j, name in enumerate(["n_c", "C", "gamma_eff_hz", "n_m", "t_eff_k"]):
            assert data[name] == [float(r[j]) for r in rows]

    def test_heating_params_file(self, capsys, tmp_path):
        path = tmp_path / "heating.json"
        path.write_text(json.dumps({"n_th0": 5.0}))
        code, out, _ = run(capsys, "cool-curve", "--heating", str(path),
                           "--nc-min", "0.001", "--nc-max", "1", "--points", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(5.0, rel=1e-3)

    def test_invalid_grid(self, capsys):
        code, _, err = run(capsys, "cool-curve", "--nc-min", "10", "--nc-max", "1")
        assert code == 2
        assert "nc-min" in err

    def test_overflow_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "cool-curve", "--points", "3", "--nc-max", "1e300")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflow_names_the_coupling(self, capsys):
        code, _, err = run(capsys, "cool-curve", "--points", "3", "--nc-max", "1e300")
        assert code == 2
        assert err == "error: n_c = 1e+300 overflows the coupling g0^2 n_c\n"

    @pytest.mark.parametrize("nc_max", ["1e290", "5.609268658512203e+294"])
    def test_overflowing_term_names_the_top_of_the_grid(self, capsys, nc_max):
        """g0^2 n_c is finite, but a term it scales is not: numpy's product at
        1e290, libm's pow of the coupling (g0 sqrt(n_c))^2 at the larger value."""
        code, out, err = run(capsys, "cool-curve", "--points", "3", "--nc-max", nc_max)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: n_c = {float(nc_max)!r} overflows the cooling curve (")
        assert err.count("\n") == 1


class TestOmitCommands:
    def test_spectrum_matches_library(self, capsys, tmp_path):
        path = tmp_path / "omit.csv"
        code, _, _ = run(capsys, "omit", "--device", "A", "--nc", "5000",
                         "--span-hz", "1e9", "--points", "101",
                         "--out", str(path))
        assert code == 0
        trace = spectra.read_trace_csv(path, kind="omit_reflection")
        device = core.DEVICE_PRESETS["A"]
        expected = spectra.omit_reflection(
            device, 5000.0, -device.mechanical.omega_m, trace.freq
        )
        np.testing.assert_allclose(trace.values, expected.values, rtol=1e-9)
        assert np.all(np.abs(trace.values) <= 1.0 + 1e-12)

    def test_explicit_detuning(self, capsys, tmp_path):
        path = tmp_path / "omit.csv"
        # negative scientific-notation values need the --flag=value form
        code, _, _ = run(capsys, "omit", "--device", "A", "--nc", "100",
                         "--detuning-hz=-7.0e9", "--span-hz", "1e8",
                         "--points", "21", "--out", str(path))
        assert code == 0
        trace = spectra.read_trace_csv(path)
        assert trace.freq.size == 21

    def test_requires_nc(self, capsys):
        code, _, err = run(capsys, "omit")
        assert code == 2
        assert "--nc" in err

    def test_map_long_format(self, capsys):
        code, out, _ = run(capsys, "omit-map", "--device", "A", "--nc", "1000",
                           "--detuning-points", "3", "--points", "11",
                           "--span-hz", "1e8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["detuning_hz", "freq_hz", "mag"]
        assert len(rows) == 3 * 11
        assert all(float(r[2]) <= 1.0 + 1e-12 for r in rows)


class TestPulseCommands:
    def simulate(self, capsys, path, *extra):
        return run(capsys, "pulse-sim", "--pulses", "20000", "--out", str(path), *extra)

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.simulate(capsys, p1, "--seed", "3")[0] == 0
        assert self.simulate(capsys, p2, "--seed", "3")[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_invariance(self, capsys, tmp_path):
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        n = str(2 * pulsed.BLOCK_PULSES + 99)
        code, _, _ = run(capsys, "pulse-sim", "--pulses", n, "--workers", "1",
                         "--out", str(p1))
        assert code == 0
        code, _, _ = run(capsys, "pulse-sim", "--pulses", n, "--workers", "4",
                         "--out", str(p2))
        assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_peak_power_overflowing_the_photon_number_names_the_flag(self, capsys):
        code, out, err = run(capsys, "pulse-sim", "--pulses", "10", "--peak-power", "1e300")
        assert (code, out) == (2, "")
        assert err == ("error: --peak-power 1e+300 gives an intracavity photon number "
                       "beyond the float range\n")

    @pytest.mark.parametrize("power", ["1e290", "1e288"])
    def test_peak_power_overflowing_the_scattering_probability_names_the_flag(self, power):
        """n_c is finite but 4 g0^2 n_c is not: one line, and no regime warning
        before it."""
        proc = fresh_omx("pulse-sim", "--pulses", "10", "--peak-power", power)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: --peak-power {float(power)!r} gives a scattering "
                               "probability beyond the float range\n")

    def test_scattering_probability_beyond_the_float_range_names_the_flag(self, capsys,
                                                                           tmp_path):
        """A tiny kappa: 4 g0^2 n_c is finite, p_s = 4 g0^2 n_c tau / kappa is not."""
        spec = dict(label="narrow", omega_c_hz=1.939e14, kappa_hz=1e-9, kappa_e_hz=1e-9,
                    g0_hz=889e3, omega_m_hz=7.259e9, gamma0_hz=715e3)
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "pulse-sim", "--device", str(path), "--pulses", "10",
                             "--peak-power", "1e304")
        assert (code, out) == (2, "")
        assert err == ("error: --peak-power 1e+304 gives a scattering probability "
                       "beyond the float range\n")

    @pytest.mark.parametrize("flag, value, mean", [
        ("--peak-power", "1e200", "3.45e+202"),
        ("--peak-power", "1e20", "3.45e+22"),
        ("--dark-rate", "1e30", "8e+22"),
    ])
    def test_mean_beyond_the_poisson_range_names_the_flag(self, flag, value, mean):
        """A finite mean count per pulse that numpy's Poisson sampler refuses:
        one line, and no regime warning before it."""
        proc = fresh_omx("pulse-sim", "--pulses", "10", flag, value)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {flag} {float(value)!r} gives {mean} counts per "
                               "pulse, beyond the Poisson sampler's range\n")

    def test_poisson_range_checks_the_simulators_own_mean(self, capsys, monkeypatch):
        """The handler checks the sideband mean that ``simulate_clicks`` draws
        from, whatever the model that gives it."""
        means = pulsed._means

        def huge(*args):
            p_s, n_m, _ = means(*args)
            return p_s, n_m, 1e30
        monkeypatch.setattr(pulsed, "_means", huge)
        code, out, err = run(capsys, "pulse-sim", "--pulses", "10")
        assert (code, out) == (2, "")
        assert err == ("error: --peak-power 7.4e-06 gives 1e+30 counts per pulse, "
                       "beyond the Poisson sampler's range\n")

    def test_dark_mean_beyond_the_poisson_range_names_the_gate_too(self, capsys):
        code, out, err = run(capsys, "pulse-sim", "--pulses", "10", "--window-ns", "1e300")
        assert (code, out) == (2, "")
        assert err == ("error: --dark-rate 5.0 with --window-ns 1e+300 gives 5e+291 counts "
                       "per pulse, beyond the Poisson sampler's range\n")

    @pytest.mark.parametrize("command", ["pulse-sim", "estimate"])
    def test_dark_floor_beyond_the_float_range_names_the_rate_and_the_gate(
            self, capsys, tmp_path, command):
        path = tmp_path / "clicks.csv"
        path.write_text("pulse_index,t_ns,label\n0,1.5,blue\n")
        argv = ["--blue", str(path), "--red", str(path)] if command == "estimate" else []
        code, out, err = run(capsys, command, *argv, "--pulses", "10", "--dark-rate", "1e308",
                             "--window-ns", "1e10")
        assert (code, out) == (2, "")
        assert err == ("error: dark_rate 1e+308 Hz over a window of 10.0 s gives dark counts "
                       "per pulse beyond the float range\n")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_names_the_flag(self, capsys, workers):
        """Rejected before any block is drawn, so no thread starts."""
        code, out, err = run(capsys, "pulse-sim", "--pulses", "10", "--workers", workers)
        assert (code, out, err) == (2, "", "error: workers must be >= 1\n")

    def test_seed_default_is_zero(self, capsys, tmp_path):
        p1, p2 = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert self.simulate(capsys, p1)[0] == 0
        assert self.simulate(capsys, p2, "--seed", "0")[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_simulate_estimate_pipeline(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps({"delta": 0.0, "tau_th_us": 0.0, "n_base": 0.4}))
        blue, red = tmp_path / "blue.csv", tmp_path / "red.csv"
        n_pulses = "60000"
        for sign, path in (("blue", blue), ("red", red)):
            code, _, _ = run(capsys, "pulse-sim", "--pulses", n_pulses,
                             "--detuning", sign, "--kernel", str(kernel),
                             "--seed", "1" if sign == "blue" else "2",
                             "--out", str(path))
            assert code == 0
        result_path = tmp_path / "estimate.json"
        code, _, _ = run(capsys, "estimate", "--blue", str(blue), "--red", str(red),
                         "--pulses", n_pulses, "--out", str(result_path))
        assert code == 0
        result = json.loads(result_path.read_text())
        assert abs(result["n_m"] - 0.4) < 4 * result["stderr"]
        assert result["counts_blue"] > result["counts_red"] > 0
        assert result["clamped"] is False

    def test_estimate_degenerate_streams_fail(self, capsys, tmp_path):
        clicks = pulsed.ClickStream(np.arange(50), np.full(50, 1e-9),
                                    np.full(50, pulsed.LABELS.index("blue")))
        path = tmp_path / "same.csv"
        pulsed.write_clicks_csv(path, clicks)
        code, _, err = run(capsys, "estimate", "--blue", str(path), "--red", str(path),
                           "--pulses", "1000", "--dark-rate", "0")
        assert code == 1
        assert "asymmetry" in err

    def test_non_finite_estimate_is_not_written(self, capsys, tmp_path, monkeypatch):
        paths = []
        for label, n in (("blue", 4), ("red", 1)):
            paths.append(tmp_path / f"{label}.csv")
            pulsed.write_clicks_csv(paths[-1], pulsed.ClickStream(
                np.arange(n), np.full(n, 1e-9), np.full(n, pulsed.LABELS.index(label))))
        estimate = pulsed.estimate_occupancy
        monkeypatch.setattr(pulsed, "estimate_occupancy", lambda *a: dataclasses.replace(
            estimate(*a), n_m=float("nan")))
        out_path = tmp_path / "estimate.json"
        code, out, err = run(capsys, "estimate", "--blue", str(paths[0]),
                             "--red", str(paths[1]), "--pulses", "10", "--dark-rate", "0",
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: non-finite result") and err.count("\n") == 1
        assert not out_path.exists()

    def test_estimate_checks_each_file_once(self, capsys, monkeypatch):
        golden = Path(__file__).parent / "golden"
        checked, original = [], pulsed.ClickStream.check_within

        def check_within(clicks, *args):
            checked.append(len(clicks))
            return original(clicks, *args)

        monkeypatch.setattr(pulsed.ClickStream, "check_within", check_within)
        code, out, _ = run(capsys, "estimate", "--blue", str(golden / "pulse_sim_blue.csv"),
                           "--red", str(golden / "pulse_sim_red.csv"),
                           "--pulses", "131171", "--dark-rate", "500")
        assert code == 0
        assert out == (golden / "estimate.json").read_text()
        result = json.loads(out)
        assert checked == [result["counts_blue"], result["counts_red"]]

    def test_estimate_requires_flags(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--blue", "x.csv")
        assert code == 2
        assert "missing required flag" in err

    def test_histogram_pipeline(self, capsys, tmp_path):
        blue, red = tmp_path / "blue.csv", tmp_path / "red.csv"
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps({"delta": 0.0, "tau_th_us": 0.0, "n_base": 0.5}))
        for sign, path, seed in (("blue", blue, "5"), ("red", red, "6")):
            code, _, _ = run(capsys, "pulse-sim", "--pulses", "30000",
                             "--detuning", sign, "--kernel", str(kernel),
                             "--seed", seed, "--eta", "0.5", "--out", str(path))
            assert code == 0
        hist_path = tmp_path / "hist.csv"
        code, _, _ = run(capsys, "histogram", "--blue", str(blue), "--red", str(red),
                         "--pulses", "30000", "--bin-ns", "8", "--out", str(hist_path))
        assert code == 0
        bin_start, rate_blue, rate_red = pulsed.read_histogram_csv(hist_path)
        assert bin_start.size == 10
        assert rate_blue.sum() > rate_red.sum() > 0

    def test_clicks_beyond_declared_train_rejected(self, capsys, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("pulse_index,t_ns,label\n0,80.0,blue\n9,81.5,dark\n")
        code, out, err = run(capsys, "estimate", "--blue", str(path), "--red", str(path),
                             "--pulses", "9")
        assert (code, out) == (2, "")
        assert "pulse_index 9" in err
        code, out, err = run(capsys, "histogram", "--blue", str(path), "--red", str(path),
                             "--pulses", "10", "--window-ns", "81")
        assert (code, out) == (2, "")
        assert "81.5" in err and "gate" in err
        # a click exactly on the gate edge is inside it
        code, out, _ = run(capsys, "histogram", "--blue", str(path), "--red", str(path),
                           "--pulses", "10", "--window-ns", "81.5")
        assert code == 0
        assert out.startswith("bin_start_ns,rate_hz_blue,rate_hz_red\n")


@pytest.mark.parametrize("argv,text,where", [
    (["estimate", "--red", "{path}", "--pulses", "10"],
     "pulse_index,t_ns,label\n0,1.5,blue\n1,2.5\n", ":3: 2 cells"),
    (["estimate", "--red", "{path}", "--pulses", "10"],
     "pulse_index,t_ns,label\n0,1.5,blue\n1,late,blue\n", ":3: cannot read t_ns"),
    (["histogram", "--red", "{path}", "--pulses", "10"], "", ":1: empty"),
    (["fit", "lorentzian", "--in", "{path}"],
     "freq_hz,value\n1.0,2.0\n2.0\n3.0,4.0\n", ":3: 1 cells"),
    (["fit", "heating", "--in", "{path}"],
     "n_c,n_m\n1.0,8.0\n2.0,7.9\n3.0\n4.0,7.7\n5.0,7.6\n", ":4: 1 cells"),
    (["fit", "g0", "--in", "{path}", "--device", "A", "--branch", "red"],
     "n_c,gamma_m_hz\n1.0,2e5\n2.0,2e5,7\n", ":3: 3 cells"),
    (["fit", "heating", "--in", "{path}"],
     "n_c,C,gamma_eff_hz,n_m,t_eff_k\n1.0,0.1,2e5,8.0,0.3\nnan,nan,nan,nan,nan\n",
     ":3: n_c value 'nan' is not finite"),
    (["estimate", "--red", "{path}", "--pulses", "10"],
     "pulse_index,t_ns,label\n0,1.5,blue\n1,inf,blue\n", ":3: t_ns value 'inf' is not finite"),
])
def test_malformed_table_is_a_usage_error(capsys, tmp_path, argv, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("pulse_index,t_ns,label\n0,1.5,blue\n")
    argv = [a.replace("{path}", str(path)) for a in argv]
    if argv[0] in ("estimate", "histogram"):
        argv += ["--blue", str(good)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}{where}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["omit", "omit-map"])
@pytest.mark.parametrize("nc,text", [
    ("nan", "n_c must be finite"), ("inf", "n_c must be finite"),
    ("-1", "n_c must be >= 0"), ("1e300", "overflows"),
])
def test_out_of_range_nc_is_a_usage_error(capsys, command, nc, text):
    code, out, err = run(capsys, command, "--nc", nc, "--points", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("nc", ["nan", "-1", "1e300"])
def test_out_of_range_nc_opens_no_out_file(capsys, tmp_path, nc):
    """omit-map computes its table as it writes it, but checks n_c first."""
    path = tmp_path / "map.csv"
    code, out, err = run(capsys, "omit-map", "--nc", nc, "--out", str(path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("argv,text", [
    (["omit", "--nc", "1", "--span-hz", "1e308"], "span-hz gives a grid beyond"),
    (["omit", "--nc", "1", "--span-hz", "inf"], "span-hz must be finite"),
    (["omit", "--nc", "1", "--span-hz", "nan"], "span-hz must be finite"),
    (["omit", "--nc", "1", "--detuning-hz", "nan"], "detuning-hz must be finite"),
    (["omit", "--nc", "1", "--detuning-hz", "1e308"], "detuning-hz in rad/s must be finite"),
    (["omit-map", "--nc", "1", "--detuning-max-hz", "inf"], "detuning-max-hz must be finite"),
    (["omit-map", "--nc", "1", "--detuning-min-hz=-inf"], "detuning-min-hz must be finite"),
    (["omit-map", "--nc", "1", "--detuning-min-hz=-1e308", "--detuning-max-hz", "1e308"],
     "detuning-min-hz/detuning-max-hz gives a grid beyond"),
    (["omit-map", "--nc", "1", "--span-hz", "1e308"], "span-hz gives a grid beyond"),
    (["cool-curve", "--nc-max", "inf"], "nc-max must be finite"),
    (["cool-curve", "--nc-max", "nan"], "nc-max must be finite"),
    (["cool-curve", "--nc-min", "nan"], "nc-min must be finite"),
])
def test_non_finite_grid_flag_is_a_usage_error(capsys, argv, text):
    code, out, err = run(capsys, *argv, "--points", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1


CLICK_FLAGS = ["--blue", "no-blue.csv", "--red", "no-red.csv", "--pulses", "100"]


@pytest.mark.parametrize("argv,text", [
    (["cool-curve", "--points", str(10**20)], "points must lie in [2, 10000000]"),
    (["omit", "--nc", "100", "--points", str(10**20)], "points must lie in [2, 10000000]"),
    (["omit-map", "--nc", "100", "--points", str(10**20)],
     "points must lie in [2, 10000000]"),
    (["omit-map", "--nc", "100", "--detuning-points", str(10**20)],
     "detuning-points must lie in [2, 10000000]"),
    (["omit-map", "--nc", "100", "--points", str(10**6), "--detuning-points", str(10**6)],
     "points x detuning-points must lie in [4, 10000000]"),
    (["taper", "--cells", str(10**20)], "cells must lie in [1, 10000000]"),
    (["histogram", *CLICK_FLAGS, "--bin-ns", "1e-30"],
     "window-ns / bin-ns must lie in [0, 10000000]"),
    (["histogram", *CLICK_FLAGS, "--bin-ns", "5e-324"], "window-ns / bin-ns must be finite"),
    (["histogram", *CLICK_FLAGS, "--bin-ns", "0"], "bin-ns must be positive"),
    (["histogram", *CLICK_FLAGS, "--window-ns", "-80"], "window-ns must be positive"),
    (["pulse-sim", "--pulses", str(10**20)], "pulses must lie in [1, 655360000000]"),
    (["pulse-sim", "--pulses", str(10**11), "--dark-rate", "1e9"],
     "pulses x counts per pulse must lie in [0, 10000000]"),
])
def test_size_beyond_the_cap_names_the_flag(capsys, argv, text):
    """Checked against one row cap before anything of that size is allocated
    (the click files named are never opened)."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {text}") and err.count("\n") == 1


def fresh_env() -> dict:
    """The environment of a new ``omx`` interpreter: this tree's ``src``, and
    Python's default warning filters and stdout buffering."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONWARNINGS", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def fresh_omx(*argv):
    """``omx argv`` in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "omx", *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv,lines", [
    (["omit-map", "--nc", "100"], 1),  # ~400 KB outgrow the pipe: a write fails
    (["device", "show", "A"], 0),  # a few buffered lines: the flush fails
    # 802k rows: encoded by a process per CPU, whose children are stopped
    (["omit-map", "--nc", "3000", "--detuning-points", "401", "--points", "2001"], 1),
], ids=["omit-map", "device", "omit-map-large"])
def test_closed_stdout_pipe_exits_141_silently(argv, lines):
    """``omx ... | head -1``: once the reader has gone, exit 128 + SIGPIPE with
    nothing on stderr, not even an 'Exception ignored' line at shutdown, and
    no process of its group left behind."""
    with subprocess.Popen([sys.executable, "-m", "omx", *argv], env=fresh_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            read = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()  # a no-op once it has exited
    with pytest.raises(ProcessLookupError):  # no orphan in its process group
        os.killpg(proc.pid, 0)
    assert all(read) and (code, err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ["cool-curve", "--points", "3", "--nc-max", "1e300"],
    ["cool-curve", "--points", "3", "--nc-max", "1e290"],
    ["cool-curve", "--nc-max", "inf"],
    ["omit", "--nc", "1", "--span-hz", "1e308"],
    ["pulse-sim", "--pulses", "10", "--peak-power", "1e200"],
    ["pulse-sim", "--pulses", "10", "--dark-rate", "1e30"],
    ["cool-curve", "--points", str(10**20)],
    ["histogram", *CLICK_FLAGS, "--bin-ns", "1e-30"],
    ["cool-curve", "--nc-max", "1e300"],
    ["cool-curve", "--points", "3", "--nc-max", "5.609268658512203e+294"],
])
def test_stderr_is_one_line_in_a_fresh_process(argv):
    """No numpy RuntimeWarning reaches a user's terminal next to the error."""
    proc = fresh_omx(*argv)
    assert proc.returncode in (1, 2) and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_overflowing_fit_prints_one_line_in_a_fresh_process(tmp_path):
    """A fit whose cost overflows exits 1 with one error line, no numpy warning."""
    path = tmp_path / "heating.csv"
    path.write_text("n_c,n_m\n" + "".join(f"{k}.0,{8 - k / 10}\n" for k in range(1, 7)))
    proc = fresh_omx("fit", "heating", "--in", str(path), "--n-th0", "1e308")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n_th0", [[], ["--n-th0", "free"]], ids=["fixed", "free"])
def test_heating_fit_of_an_overflowing_cooperativity_names_n_c(tmp_path, n_th0):
    """C = 4 g0^2 n_c / (kappa gamma_0) beyond the float range is an input error:
    exit 2 with one line, in place of numpy's warning and a frozen fit."""
    path = tmp_path / "heating.csv"
    path.write_text("n_c,n_m\n" + "".join(f"{k}e300,{8 - k / 10}\n" for k in range(1, 6)))
    proc = fresh_omx("fit", "heating", "--in", str(path), *n_th0)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: n_c = 5e+300 overflows the cooperativity\n"


@pytest.mark.parametrize("kind", ["lorentzian", "fano"])
def test_fit_of_an_overflowing_trace_prints_one_line_in_a_fresh_process(tmp_path, kind):
    """Trace values of +-1e308 overflow the fit seed: exit 1, one line, no numpy
    warning and no LAPACK message."""
    path = tmp_path / "trace.csv"
    path.write_text("freq_hz,value\n1,1e308\n2,-1e308\n3,1e308\n4,-1e308\n5,1e308\n6,0\n")
    proc = fresh_omx("fit", kind, "--in", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_out_of_memory_is_a_numeric_failure(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 251. TiB for an array")

    monkeypatch.setattr(pulsed, "_block_clicks", exhausted)
    code, out, err = run(capsys, "pulse-sim", "--pulses", "10")
    assert (code, out) == (1, "")
    assert err == "error: Unable to allocate 251. TiB for an array\n"


def test_interrupt_exits_130_without_a_traceback(capsys, monkeypatch):
    """Ctrl-C ends a command with the shell's SIGINT status and nothing on stderr."""
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(omx.cli, "_cmd_cool_curve", interrupted)
    assert run(capsys, "cool-curve", "--points", "20") == (130, "", "")


@pytest.mark.parametrize("argv,warning", [
    (["pulse-sim", "--pulses", "10", "--peak-power", "1e-3"],
     "scattering probability 6.618 > 0.2; linearized per-pulse picture is marginal"),
    (["fit", "heating", "--in", "{table}"],
     "singular Jacobian: freezing parameter(s) ['beta_sat']"),
])
def test_regime_warning_is_one_line_in_a_fresh_process(capsys, tmp_path, argv, warning):
    # every n_m below the default n_th0 7.95: alpha_sat's best value is 0, where the data
    # do not determine beta_sat
    path = tmp_path / "cooling.csv"
    path.write_text("n_c,n_m\n0,8\n100,1.0\n100,1.1\n200,1.05\n300,1.02\n")
    argv = [a.replace("{table}", str(path)) for a in argv]
    proc = fresh_omx(*argv)
    assert (proc.returncode, proc.stderr) == (0, f"warning: {warning}\n")
    with pytest.warns(UserWarning) as record:
        code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, proc.stdout)
    assert [str(w.message) for w in record] == [warning]


@pytest.mark.parametrize("argv,kind", [
    (["pulse-sim", "--pulses", "10", "--kernel", "{spec}"], "kernel"),
    (["cool-curve", "--points", "3", "--heating", "{spec}"], "heating"),
    (["omit", "--nc", "1", "--points", "3", "--device", "{spec}"], "device"),
    (["taper", "--device", "{spec}"], "design"),
])
@pytest.mark.parametrize("value,text", [
    (None, "must be a number, got null"), ("x", 'must be a number, got "x"'),
    (True, "must be a number, got true"), ([], "must be a number, got []"),
    (10**400, "is beyond the float range"), ("missing", "is missing"),
])
def test_wrong_typed_spec_field_names_file_and_key(capsys, tmp_path, argv, kind, value, text):
    spec = {"kernel": {"delta": 0.03, "tau_th_us": 4.5},
            "heating": {"n_th0": 7.95, "alpha_sat": 0.3},
            "device": core.device_to_json(core.DEVICE_PRESETS["A"]),
            "design": geometry.design_to_json(geometry.DESIGN_PRESETS["A"])}[kind]
    key = list(spec)[-1]
    if value == "missing":
        key = next(k for k in spec if k != "label")
        del spec[key]
    else:
        spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *[a.replace("{spec}", str(path)) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {key} {text}\n"


@pytest.mark.parametrize("argv", [
    ["omit", "--nc", "1", "--points", "3"],
    ["cool-curve", "--points", "3"],
    ["pulse-sim", "--pulses", "10"],
])
def test_device_whose_g0_squared_overflows_names_file_and_g0(capsys, tmp_path, argv):
    """g0_hz = 1e200 is a float, but every rate in g0^2 leaves the float range."""
    spec = core.device_to_json(core.DEVICE_PRESETS["A"])
    spec["g0_hz"] = 1e200
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv, "--device", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: g0^2 is beyond the float range\n"


@pytest.mark.parametrize("argv,kind", [
    (["omit", "--nc", "1", "--points", "3", "--device", "{spec}"], "device"),
    (["device", "show", "{spec}"], "device"),
    (["taper", "--device", "{spec}"], "design"),
])
@pytest.mark.parametrize("label,text", [
    ([], "[]"), (None, "null"), (5, "5"), ({}, "{}"), ({"a": 1}, '{"a": 1}'),
])
def test_non_string_label_names_file(capsys, tmp_path, argv, kind, label, text):
    spec = (core.device_to_json(core.DEVICE_PRESETS["A"]) if kind == "device"
            else geometry.design_to_json(geometry.DESIGN_PRESETS["A"]))
    spec["label"] = label
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *[a.replace("{spec}", str(path)) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: label must be a string, got {text}\n"


@pytest.mark.parametrize("argv,kind", [
    (["device", "show", "nope"], "device"),
    (["omit", "--nc", "1", "--device", "nope"], "device"),
    (["taper", "--device", "nope"], "design"),
    (["cool-curve", "--heating", "nope"], "heating"),
    (["pulse-sim", "--kernel", "nope"], "kernel"),
])
def test_unknown_spec_is_named_with_its_kind(capsys, argv, kind):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: nope: unknown {kind} preset or file\n"


@pytest.mark.parametrize("argv", [
    ["fit", "lorentzian", "--in", "{missing}"],
    ["estimate", "--blue", "{missing}", "--red", "{missing}", "--pulses", "10"],
    ["cool-curve", "--heating", "{missing}"],
    ["pulse-sim", "--pulses", "10", "--kernel", "{missing}"],
    ["taper", "--config", "{missing}"],
    ["device", "export", "A", "{missing}/x.json"],
    ["taper", "--out", "{dir}"],
    ["omit", "--nc", "1", "--device", "{missing}"],
    ["taper", "--device", "{missing}"],
])
def test_file_error_names_the_path(capsys, tmp_path, argv):
    missing = str(tmp_path / "no_such")
    argv = [a.format(missing=missing, dir=tmp_path) for a in argv]
    path = missing if any(missing in a for a in argv) else str(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


class TestTaperCommand:
    def test_matches_library_writer(self, capsys, tmp_path):
        cli_path = tmp_path / "cli.csv"
        lib_path = tmp_path / "lib.csv"
        code, _, _ = run(capsys, "taper", "--device", "B", "--out", str(cli_path))
        assert code == 0
        geometry.write_schedule_csv(lib_path, geometry.generate_schedule("B"))
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_design_file_input(self, capsys, tmp_path):
        design_path = tmp_path / "design.json"
        geometry.save_design(geometry.DESIGN_PRESETS["A"], design_path)
        code, out, _ = run(capsys, "taper", "--device", str(design_path),
                           "--cells", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["cell_index", "d_nm", "h_nm"]
        assert len(rows) == 6
        assert float(rows[0][1]) == 70.0

    def test_invalid_cells(self, capsys):
        code, _, err = run(capsys, "taper", "--cells", "0")
        assert code == 2
        assert "cells" in err

    def test_preset_dir_shadows_a_design(self, capsys, tmp_path, monkeypatch):
        data = geometry.design_to_json(geometry.DESIGN_PRESETS["A"])
        data["d0_nm"] = 50.0
        (tmp_path / "A.json").write_text(json.dumps(data))
        monkeypatch.setenv("OMX_PRESET_DIR", str(tmp_path))
        code, out, _ = run(capsys, "taper", "--device", "A", "--cells", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == ["0", "50.0", "194.5"]

    def test_unknown_design(self, capsys):
        code, _, err = run(capsys, "taper", "--device", "nope")
        assert code == 2
        assert "unknown design" in err


class TestFitCommand:
    def test_lorentzian_fit_file(self, capsys, tmp_path):
        from omx import fitkit

        freq = np.linspace(1e9, 2e9, 401)
        omega = freq * 2 * np.pi
        values = fitkit.lorentzian(omega, 1.5e9 * 2 * np.pi, 50e6 * 2 * np.pi, -0.7, 1.0)
        trace_path = tmp_path / "dip.csv"
        spectra.write_trace_csv(
            trace_path, spectra.SpectrumTrace(omega, values, kind="generic")
        )
        out_path = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "lorentzian", "--in", str(trace_path),
                         "--out", str(out_path))
        assert code == 0
        result = json.loads(out_path.read_text())
        assert result["fit"] == "lorentzian"
        assert result["converged"] is True
        assert result["params"]["center_hz"]["value"] == pytest.approx(1.5e9, rel=1e-9)
        assert result["params"]["fwhm_hz"]["value"] == pytest.approx(50e6, rel=1e-9)
        assert result["params"]["amplitude"]["value"] == pytest.approx(-0.7, rel=1e-6)

    def test_g0_fit_with_device_rates(self, capsys, tmp_path):
        device = core.DEVICE_PRESETS["A"]
        n_c = np.linspace(100, 4000, 9)
        slope = 4.0 * device.g0**2 / device.optical.kappa
        gamma_hz = angular_to_hz(device.mechanical.gamma_0 + slope * n_c)
        path = tmp_path / "linewidths.csv"
        lines = ["n_c,gamma_m_hz"] + [
            f"{float(x)!r},{float(y)!r}" for x, y in zip(n_c, gamma_hz)
        ]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", "g0", "--in", str(path),
                           "--device", "A", "--branch", "red")
        assert code == 0
        result = json.loads(out)
        assert result["params"]["g0_hz"]["value"] == pytest.approx(901e3, rel=1e-9)

    def test_g0_fit_requires_branch_and_rates(self, capsys, tmp_path):
        path = tmp_path / "linewidths.csv"
        path.write_text("n_c,gamma_m_hz\n100.0,210000.0\n200.0,215000.0\n")
        code, _, err = run(capsys, "fit", "g0", "--in", str(path), "--device", "A")
        assert code == 2
        assert "branch" in err
        code, _, err = run(capsys, "fit", "g0", "--in", str(path), "--branch", "red")
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize("kind, header, text", [
        ("g0", "n_c,sigma_hz", "g0 fit input needs columns n_c,gamma_m_hz[,sigma_hz]"),
        ("g0", "gamma_m_hz", "g0 fit input needs columns n_c,gamma_m_hz[,sigma_hz]"),
        ("heating", "n_c", "heating fit input needs columns n_c,n_m"),
        ("heating", "n_m,n_th", "heating fit input needs columns n_c,n_m"),
    ])
    def test_fit_input_missing_a_column(self, capsys, tmp_path, kind, header, text):
        path = tmp_path / "t.csv"
        path.write_text(header + "\n" + ",".join(["1.5"] * (header.count(",") + 1)) + "\n")
        code, out, err = run(capsys, "fit", kind, "--in", str(path), "--device", "A",
                             *(["--branch", "red"] if kind == "g0" else []))
        assert (code, out, err) == (2, "", f"error: {text}\n")

    def test_heating_fit(self, capsys, tmp_path):
        device = core.DEVICE_PRESETS["A"]
        grid = np.geomspace(5, 6e4, 25)
        n_m = [core.heating_model_occupancy(device, core.DEFAULT_HEATING, n)
               for n in grid]
        path = tmp_path / "cooling.csv"
        lines = ["n_c,n_m"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(grid, n_m)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", "heating", "--in", str(path),
                           "--device", "A")
        assert code == 0
        result = json.loads(out)
        assert result["params"]["alpha_sat"]["value"] == pytest.approx(0.324, rel=1e-6)
        assert result["params"]["beta_sat"]["value"] == pytest.approx(0.019, rel=1e-6)
        assert result["params"]["alpha_lin"]["value"] == pytest.approx(0.003, rel=1e-6)
        assert result["params"]["n_th0"]["value"] == 7.95

        code, out, _ = run(capsys, "fit", "heating", "--in", str(path),
                           "--device", "A", "--n-th0", "free")
        assert code == 0
        result = json.loads(out)
        assert result["params"]["n_th0"]["value"] == pytest.approx(7.95, rel=1e-6)

    @pytest.fixture
    def anchored_curve(self, capsys, tmp_path):
        """A ``cool-curve`` table with its laser-off row prepended: n_c = 0,
        where n_m is the bath occupancy n_th0."""
        code, out, _ = run(capsys, "cool-curve", "--points", "30")
        assert code == 0
        header, rows = parse_csv(out)
        n_c, n_m = header.index("n_c"), header.index("n_m")
        path = tmp_path / "anchored.csv"
        path.write_text("n_c,n_m\n0,7.95\n" + "".join(f"{row[n_c]},{row[n_m]}\n"
                                                      for row in rows))
        return str(path)

    def test_heating_fit_of_a_curve_with_its_laser_off_anchor(self, capsys, anchored_curve):
        code, out, err = run(capsys, "fit", "heating", "--in", anchored_curve)
        assert (code, err) == (0, "")
        params = json.loads(out)["params"]
        for name, truth in (("alpha_sat", 0.324), ("beta_sat", 0.019), ("alpha_lin", 0.003)):
            assert params[name]["value"] == pytest.approx(truth, rel=1e-6)

    @pytest.mark.filterwarnings("error:singular Jacobian")
    def test_heating_fit_of_a_curve_with_its_anchor_and_a_free_baseline(self, capsys, tmp_path,
                                                                       anchored_curve):
        """Gives the values of the same fit without the anchor row."""
        plain = tmp_path / "plain.csv"
        lines = Path(anchored_curve).read_text().splitlines(keepends=True)
        plain.write_text(lines[0] + "".join(lines[2:]))
        fits = []
        for path in (anchored_curve, plain):
            code, out, _ = run(capsys, "fit", "heating", "--in", str(path), "--n-th0", "free")
            assert code == 0
            fits.append({k: p["value"] for k, p in json.loads(out)["params"].items()})
        assert fits[0]["n_th0"] == pytest.approx(7.95, rel=1e-6)
        assert fits[0] == pytest.approx(fits[1], rel=1e-6)

    @pytest.mark.parametrize("n_th0", [[], ["--n-th0", "free"]], ids=["fixed", "free"])
    @pytest.mark.parametrize("points,anchor", [(30, False), (30, True), (100_000, False)],
                             ids=["30", "30-with-anchor", "100000"])
    def test_heating_fit_of_a_noiseless_curve_is_exact_and_silent(self, capsys, tmp_path,
                                                                  points, anchor, n_th0):
        """No coefficient reaches its zero bound on the way, so none is frozen: nothing on
        stderr in a fresh process, and DEFAULT_HEATING to 1e-9."""
        code, out, _ = run(capsys, "cool-curve", "--points", str(points))
        assert code == 0
        header, rows = parse_csv(out)
        n_c, n_m = header.index("n_c"), header.index("n_m")
        path = tmp_path / "curve.csv"
        path.write_text("n_c,n_m\n" + "0,7.95\n" * anchor
                        + "".join(f"{row[n_c]},{row[n_m]}\n" for row in rows))
        proc = fresh_omx("fit", "heating", "--in", str(path), *n_th0)
        assert (proc.returncode, proc.stderr) == (0, "")
        params = json.loads(proc.stdout)["params"]
        for name in ("n_th0", "alpha_sat", "beta_sat", "alpha_lin"):
            truth = getattr(core.DEFAULT_HEATING, name)
            assert params[name]["value"] == pytest.approx(truth, rel=1e-9), name

    def test_heating_fit_gives_an_undetermined_coefficient_no_stderr(self, capsys, tmp_path):
        """Every n_m below the default n_th0: alpha_sat fits to 0, where beta_sat has no
        effect on the model, so its stderr is null, not 0."""
        path = tmp_path / "cooling.csv"
        path.write_text("n_c,n_m\n0,8\n100,1.0\n100,1.1\n200,1.05\n300,1.02\n")
        with pytest.warns(UserWarning, match=r"freezing parameter\(s\) \['beta_sat'\]"):
            code, out, _ = run(capsys, "fit", "heating", "--in", str(path))
        assert code == 0
        params = json.loads(out, parse_constant=lambda token: pytest.fail(token))["params"]
        assert params["beta_sat"]["stderr"] is None
        assert params["alpha_sat"]["stderr"] > 0 and params["alpha_lin"]["stderr"] > 0

    def test_heating_fit_of_a_curve_with_its_last_row_repeated(self, capsys, tmp_path):
        """The two largest n_c are equal, as after a repeated last measurement:
        the fit is that of the curve without the repeat."""
        code, curve, _ = run(capsys, "cool-curve", "--points", "30")
        assert code == 0
        plain, repeated = tmp_path / "plain.csv", tmp_path / "repeated.csv"
        plain.write_text(curve)
        repeated.write_text(curve + curve.splitlines(keepends=True)[-1])
        fits = []
        for path in (repeated, plain):
            code, out, err = run(capsys, "fit", "heating", "--in", str(path))
            assert (code, err) == (0, "")
            fits.append({k: p["value"] for k, p in json.loads(out)["params"].items()})
        assert fits[0] == pytest.approx(fits[1], rel=1e-6)

    @pytest.mark.parametrize("n_th0", [[], ["--n-th0", "free"]], ids=["fixed", "free"])
    def test_heating_fit_without_a_positive_n_c_names_it(self, capsys, tmp_path, n_th0):
        path = tmp_path / "laser_off.csv"
        path.write_text("n_c,n_m\n" + "".join(f"0,{7.95 + k / 100}\n" for k in range(6)))
        code, out, err = run(capsys, "fit", "heating", "--in", str(path), *n_th0)
        assert (code, out, err) == (2, "", "error: heating fit needs a positive n_c\n")

    def test_heating_fit_of_a_single_n_c_names_it(self, capsys, tmp_path):
        path = tmp_path / "one_power.csv"
        path.write_text("n_c,n_m\n" + "".join(f"100,{1 + k / 100}\n" for k in range(6)))
        code, out, err = run(capsys, "fit", "heating", "--in", str(path))
        assert (code, out, err) == (2, "", "error: heating fit needs two distinct n_c\n")

    @pytest.mark.parametrize("rows,n_th0,text", [
        ("", [], "3 distinct positive n_c, the table has 2"),
        ("0,8.0\n", [], "3 distinct positive n_c, the table has 2"),
        ("0,8.0\n", ["--n-th0", "free"], "4 distinct n_c, the table has 3"),
    ], ids=["fixed", "fixed-with-anchor", "free"])
    def test_heating_fit_with_too_few_distinct_n_c_names_the_count(self, capsys, tmp_path,
                                                                   rows, n_th0, text):
        """Fewer distinct n_c than coefficients (n_th0's may be at n_c = 0) would
        fit one from no data, reported converged at stderr 0."""
        path = tmp_path / "two_powers.csv"
        path.write_text("n_c,n_m\n100,1.0\n100,1.1\n200,1.05\n200,1.02\n" + rows)
        code, out, err = run(capsys, "fit", "heating", "--in", str(path), *n_th0)
        assert (code, out, err) == (2, "", f"error: heating fit needs {text}\n")

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "fit", "lorentzian", "--in", "/nonexistent.csv")
        assert code == 2

    @pytest.mark.parametrize("sigma", ["0", "-1"])
    def test_g0_rejects_non_positive_sigma(self, capsys, tmp_path, sigma):
        path = tmp_path / "linewidths.csv"
        path.write_text(f"n_c,gamma_m_hz,sigma_hz\n100,210000,{sigma}\n200,215000,{sigma}\n")
        code, out, err = run(capsys, "fit", "g0", "--in", str(path), "--device", "A",
                             "--branch", "red")
        assert (code, out, err) == (2, "", "error: sigma_hz must be positive\n")

    def test_g0_rejects_a_linewidth_beyond_the_float_range_in_rad_s(self, capsys, tmp_path):
        path = tmp_path / "linewidths.csv"
        path.write_text("n_c,gamma_m_hz\n100,1e308\n200,215000\n")
        code, out, err = run(capsys, "fit", "g0", "--in", str(path), "--device", "A",
                             "--branch", "red")
        assert (code, out) == (2, "")
        assert err == "error: gamma_m_hz in rad/s must be finite, got inf\n"

    @pytest.mark.parametrize("flag", ["--kappa-hz", "--gamma0-hz"])
    def test_g0_rate_beyond_the_float_range_in_rad_s_names_the_flag(self, capsys, tmp_path,
                                                                    flag):
        path = tmp_path / "linewidths.csv"
        path.write_text("n_c,gamma_m_hz\n100,210000\n200,215000\n")
        code, out, err = run(capsys, "fit", "g0", "--in", str(path), "--device", "A",
                             "--branch", "red", flag, "1e308")
        assert (code, out) == (2, "")
        assert err == f"error: {flag[2:]} in rad/s must be finite, got inf\n"

    def test_g0_overflow_is_a_numeric_failure(self, capsys, tmp_path):
        path = tmp_path / "linewidths.csv"
        path.write_text("n_c,gamma_m_hz\n1e200,210000\n2e200,215000\n")
        code, out, err = run(capsys, "fit", "g0", "--in", str(path), "--device", "A",
                             "--branch", "red")
        assert (code, out) == (1, "")
        assert err.startswith("error: overflow") and err.count("\n") == 1

    def test_fit_that_does_not_converge_writes_its_result_then_exits_1(self, capsys,
                                                                          tmp_path):
        """fit fano on pure noise, which holds no line, runs to the iteration cap:
        the payload says so, the same bytes go to stdout and to --out, then one
        error line."""
        from omx import table

        freq = np.linspace(0.9e9, 1.1e9, 201)
        value = np.random.default_rng(0).normal(0.0, 1.0, 201)
        trace, out_path = tmp_path / "noisy.csv", tmp_path / "fano.json"
        table.write_table({"freq_hz": freq, "value": value}, trace)
        code, out, err = run(capsys, "fit", "fano", "--in", str(trace))
        assert code == 1
        assert err.startswith("error: fit did not converge: ") and err.count("\n") == 1
        assert json.loads(out)["converged"] is False
        assert run(capsys, "fit", "fano", "--in", str(trace), "--out", str(out_path)) == (
            1, "", err)
        assert out_path.read_bytes() == out.encode()

    def test_singular_linalg_is_a_numeric_failure(self, capsys, tmp_path, monkeypatch):
        from omx import fitkit

        def singular(trace):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(fitkit, "fit_lorentzian", singular)
        code, out, err = run(capsys, "fit", "lorentzian", "--in",
                             str(Path(__file__).parent / "golden" / "omit.csv"))
        assert (code, out) == (1, "")
        assert err == "error: SVD did not converge in Linear Least Squares\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        config = tmp_path / "taper.cfg"
        config.write_text("device = A\ncells = 3\n")
        code, out, _ = run(capsys, "taper", "--config", str(config))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert float(rows[0][1]) == 70.0  # device A from config

        code, out, _ = run(capsys, "taper", "--config", str(config), "--cells", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6  # explicit flag wins

    def test_unused_config_key_warns(self, capsys, tmp_path):
        config = tmp_path / "taper.cfg"
        config.write_text("cells = 3\nnot_a_flag = 1\n")
        code, _, err = run(capsys, "taper", "--config", str(config))
        assert code == 0
        assert "not_a_flag" in err

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        config = tmp_path / "curve.cfg"
        config.write_text("# grid\nnc-min = 1\nnc-max = 10\n\npoints = 5 # short\n")
        code, out, _ = run(capsys, "cool-curve", "--config", str(config))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_config_value_outside_choices(self, capsys, tmp_path):
        config = tmp_path / "taper.cfg"
        config.write_text("format = xml\n")
        code, out, err = run(capsys, "taper", "--config", str(config))
        assert (code, out) == (2, "")
        assert "format" in err and "xml" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        code, _, err = run(capsys, "taper", "--config", str(config))
        assert code == 2
        assert "key = value" in err


    def test_required_flag_from_config(self, capsys, tmp_path):
        config = tmp_path / "omit.cfg"
        config.write_text("nc = 100\npoints = 11\n")
        code, out, err = run(capsys, "omit", "--config", str(config))
        assert (code, err) == (0, "")
        assert out == run(capsys, "omit", "--nc", "100", "--points", "11")[1]

    def test_explicit_format_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "taper.cfg"
        config.write_text("format = json\ncells = 3\n")
        code, out, _ = run(capsys, "taper", "--config", str(config))
        assert code == 0 and json.loads(out)
        code, out, err = run(capsys, "taper", "--config", str(config), "--format", "csv")
        assert (code, err) == (0, "")
        assert out == run(capsys, "taper", "--cells", "3")[1]

    @pytest.mark.parametrize("key", ["kind", "help"])
    def test_config_key_that_is_not_an_optional_flag_warns(self, capsys, tmp_path, key):
        config = tmp_path / "fit.cfg"
        config.write_text(f"{key} = fano\n")
        trace = tmp_path / "dip.csv"
        freq = np.linspace(1e9, 2e9, 41)
        trace.write_text("freq_hz,value\n" + "".join(
            f"{f!r},{1.0 - 0.5 / (1.0 + ((f - 1.5e9) / 1e8) ** 2)!r}\n" for f in freq.tolist()))
        code, out, err = run(capsys, "fit", "lorentzian", "--config", str(config),
                             "--in", str(trace))
        assert code == 0 and json.loads(out)["fit"] == "lorentzian"
        assert err == f"warning: config key {key!r} not used by this command\n"

    def test_config_value_of_the_wrong_type(self, capsys, tmp_path):
        config = tmp_path / "curve.cfg"
        config.write_text("points = abc\n")
        code, out, err = run(capsys, "cool-curve", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "abc" in err and err.count("\n") == 1

    def test_missing_required_flag_names_the_flag(self, capsys, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("branch = red\n")
        code, out, err = run(capsys, "fit", "g0", "--config", str(config))
        assert (code, out, err) == (2, "", "error: missing required flag(s): --in\n")

    @pytest.mark.parametrize("key", ["in", "in_path", "in-path"])
    def test_config_key_is_a_flag_name_or_its_dest(self, capsys, tmp_path, key):
        path = tmp_path / "linewidths.csv"
        path.write_text("n_c,gamma_m_hz\n100.0,210000.0\n200.0,215000.0\n")
        config = tmp_path / "fit.cfg"
        config.write_text(f"{key} = {path}\nbranch = red\ndevice = A\n")
        code, out, err = run(capsys, "fit", "g0", "--config", str(config))
        assert (code, err) == (0, "")
        assert out == run(capsys, "fit", "g0", "--in", str(path), "--branch", "red",
                          "--device", "A")[1]


class TestTopLevel:
    def test_no_arguments_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert "usage" in out.lower()

    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert (code, out, err) == (0, f"omx {omx.__version__}\n", "")

    def test_version_is_the_package_version(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        # a regex, not tomllib: Python 3.10 has none
        match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert match is not None and match.group(1) == omx.__version__

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
