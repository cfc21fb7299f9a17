"""Batch driver end to end: exit codes, artifacts, determinism, overrides.

Every test drives `geosink.cli.main` in process with a config written
under tmp_path, then inspects the exit code and the files the command
left behind. Wall-clock fields are stripped before any equality check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geosink
from geosink.cli import _THREAD_VARS, main
from geosink.torus import TorusGrid

SMOOTH_F = "3*(1-cos(2*pi*x1))"
SMOOTH_G = "3*(1-cos(2*pi*(x1-0.375)))"


def _cfg(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _summary(out):
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _csv(path):
    """(header tuple, float matrix) for one of our CSV artifacts."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = tuple(lines[0].split(","))
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def _torus_cloud(path, coords, weights=None):
    with open(path, "w", encoding="utf-8") as fh:
        for i, x in enumerate(coords):
            if weights is None:
                fh.write(f"torus1 {x:.10f}\n")
            else:
                fh.write(f"torus1 {x:.10f} {weights[i]:.10f}\n")
    return str(path)


class TestTransportTorus:
    def test_smooth_instance_reaches_tol(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 32, "f": SMOOTH_F, "g": SMOOTH_G,
             "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["stop_reason"] == "tol"
        assert summary["e_row"] <= 1e-9 and summary["e_col"] <= 1e-9
        assert summary["N"] == 32

        header, pots = _csv(out / "potentials.csv")
        assert header == ("x1", "u", "v")
        assert pots.shape == (32, 3)
        # lattice coordinates come back in grid order
        np.testing.assert_allclose(pots[:, 0], np.arange(32) / 32.0)

        theader, trace = _csv(out / "trace.csv")
        assert theader[0] == "m" and theader[-1] == "wall_time_ms"
        assert trace.shape[0] == summary["m_stop"]
        # the energy column never increases along the schedule
        assert np.all(np.diff(trace[:, 1]) <= 1e-12)

    def test_fft_repairs_reported_in_summary(self, tmp_path):
        # at k=256 the output spans about 1e11; the exact 1-D product
        # serves it without a fallback, and the summary reports no repairs
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 256, "f": SMOOTH_F, "g": SMOOTH_G,
             "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["stop_reason"] == "tol"
        assert summary["backend"]["fft_fallbacks"] == 0
        assert "fft_repaired" not in summary["backend"]

    def test_direct_and_fft_agree(self, tmp_path):
        base = {"manifold": "torus", "n": 1, "k": 16, "f": SMOOTH_F, "g": SMOOTH_G,
                "tol": 1e-10}
        cfg = _cfg(tmp_path, base)
        outs = {}
        for backend in ("direct", "fft"):
            out = tmp_path / backend
            rc = main(["transport", "torus", "--config", cfg, "--out", str(out),
                       "--backend", backend])
            assert rc == 0
            outs[backend] = _csv(out / "potentials.csv")[1]
        np.testing.assert_allclose(outs["direct"], outs["fft"], atol=1e-8, rtol=0.0)

    def test_reruns_are_identical_up_to_timings(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 16, "f": SMOOTH_F, "g": SMOOTH_G,
             "tol": 1e-8},
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs

        assert (a / "potentials.csv").read_bytes() == (b / "potentials.csv").read_bytes()

        ha, ta = _csv(a / "trace.csv")
        hb, tb = _csv(b / "trace.csv")
        keep = [i for i, name in enumerate(ha) if name != "wall_time_ms"]
        assert ha == hb
        np.testing.assert_array_equal(ta[:, keep], tb[:, keep])

        sa, sb = _summary(a), _summary(b)
        sa.pop("wall_time_ms"), sb.pop("wall_time_ms")
        assert sa == sb

    def test_summary_echoes_resolved_config(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0"})
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
        resolved = _summary(out)["config"]
        # defaults are materialized, including the derived iteration cap
        assert resolved["backend"] == "fft"
        assert resolved["tol"] == 1e-9
        assert resolved["m_max"] == int(np.ceil(2.0 * 8 * np.log(8)))

    def test_k_and_schedule_overrides(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 32, "f": "0", "g": "0"})
        out = tmp_path / "run"
        rc = main(["transport", "torus", "--config", cfg, "--out", str(out),
                   "--k", "8", "--schedule-A", "3.0"])
        assert rc == 0
        summary = _summary(out)
        assert summary["k"] == 8 and summary["N"] == 8
        assert summary["config"]["A"] == 3.0
        assert summary["config"]["m_max"] == int(np.ceil(3.0 * 8 * np.log(8)))

    def test_point_clouds_run_direct(self, tmp_path, rng):
        src = _torus_cloud(tmp_path / "src.txt", rng.random(12))
        tgt = _torus_cloud(tmp_path / "tgt.txt", rng.random(9))
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 16, "source_cloud": src,
             "target_cloud": tgt, "backend": "direct", "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["N"] == 12
        # distinct supports split the potentials across two files
        header, pots = _csv(out / "potentials.csv")
        assert header == ("x1", "u") and pots.shape == (12, 2)
        theader, tpots = _csv(out / "potentials_target.csv")
        assert theader == ("x1", "v") and tpots.shape == (9, 2)

    def test_lattice_coordinates_are_the_grid_points(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "torus", "n": 2, "k": 6, "f": "0", "g": "0"})
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 0
        header, pots = _csv(out / "potentials.csv")
        assert header == ("x1", "x2", "u", "v")
        # repr round-trips, so the columns hold the lattice bit for bit
        np.testing.assert_array_equal(pots[:, :2], TorusGrid(2, 6).points())

    def test_non_finite_cloud_is_a_config_error(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("torus1 0.1\ntorus1 nan\n", encoding="utf-8")
        tgt = _torus_cloud(tmp_path / "tgt.txt", [0.2, 0.7])
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 8, "source_cloud": str(src),
             "target_cloud": tgt, "backend": "direct"},
        )
        rc = main(["transport", "torus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "coordinates must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("sphere 0.3 1.0\nsphere 1.2 2.0\n", "expected torus points"),
         ("torus2 0.1 0.2\ntorus2 0.5 0.6\n", "dimension mismatch with n=1")],
        ids=["sphere-points", "two-dimensional-points"],
    )
    def test_cloud_of_another_space_is_a_config_error(self, tmp_path, capsys, text,
                                                      message):
        src = tmp_path / "src.txt"
        src.write_text(text, encoding="utf-8")
        tgt = _torus_cloud(tmp_path / "tgt.txt", [0.2, 0.7])
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 1, "k": 8, "source_cloud": str(src),
             "target_cloud": tgt, "backend": "direct"},
        )
        rc = main(["transport", "torus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{src}: {message}" in capsys.readouterr().err

    def test_point_clouds_reject_fft_backend(self, tmp_path, rng):
        src = _torus_cloud(tmp_path / "src.txt", rng.random(6))
        tgt = _torus_cloud(tmp_path / "tgt.txt", rng.random(6))
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "k": 8, "source_cloud": src, "target_cloud": tgt,
             "backend": "fft"},
        )
        rc = main(["transport", "torus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unnormalized_cloud_needs_flag(self, tmp_path):
        coords = [0.1, 0.4, 0.8]
        src = _torus_cloud(tmp_path / "src.txt", coords, weights=[0.2, 0.2, 0.2])
        tgt = _torus_cloud(tmp_path / "tgt.txt", coords, weights=[0.2, 0.3, 0.5])
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "k": 8, "source_cloud": src, "target_cloud": tgt,
             "backend": "direct"},
        )
        out = tmp_path / "o"
        argv = ["transport", "torus", "--config", cfg, "--out", str(out)]
        assert main(argv) == 2
        assert main(argv + ["--renormalize"]) == 0

    def test_expression_and_cloud_conflict(self, tmp_path, rng):
        src = _torus_cloud(tmp_path / "src.txt", rng.random(4))
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "k": 8, "f": "0", "g": "0", "source_cloud": src,
             "backend": "direct"},
        )
        rc = main(["transport", "torus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_fft_underflow_past_the_cap_aborts(self, tmp_path):
        # a narrow heat kernel on a 2-D lattice past the dense cap: the
        # first FFT apply underflows and there is no exact route to redo it
        cfg = _cfg(
            tmp_path,
            {"manifold": "torus", "n": 2, "k": 128, "kernel": "heat", "t": 1e-3,
             "f": "40*cos(2*pi*x1)", "g": "0", "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", cfg, "--out", str(out)]) == 3
        dump = json.loads((out / "abort.json").read_text(encoding="utf-8"))
        assert "underflow" in dump["error"]
        assert dump["diagnostics"]["points"] == 128 * 128
        assert dump["diagnostics"]["dense_point_cap"] == 4096


class TestTorusConfigErrors:
    def _rc(self, tmp_path, payload):
        cfg = _cfg(tmp_path, payload)
        return main(["transport", "torus", "--config", cfg,
                     "--out", str(tmp_path / "o")])

    def test_missing_required_key(self, tmp_path):
        assert self._rc(tmp_path, {"manifold": "torus", "f": "0", "g": "0"}) == 2

    def test_unknown_key(self, tmp_path):
        assert self._rc(
            tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0", "kk": 1}
        ) == 2

    def test_wrong_manifold(self, tmp_path):
        assert self._rc(
            tmp_path, {"manifold": "sphere", "k": 8, "f": "0", "g": "0"}
        ) == 2

    def test_bad_expression(self, tmp_path):
        assert self._rc(
            tmp_path, {"manifold": "torus", "k": 8, "f": "frob(x1)", "g": "0"}
        ) == 2

    def test_missing_sides(self, tmp_path):
        assert self._rc(tmp_path, {"manifold": "torus", "k": 8}) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["transport", "torus", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["transport", "torus", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        rc = main(["transport", "torus", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_kernel(self, tmp_path):
        assert self._rc(
            tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0", "kernel": "heet"}
        ) == 2

    def test_t_without_heat_kernel(self, tmp_path, capsys):
        # a gaussian run used to echo t in summary.json and ignore it
        assert self._rc(
            tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0", "t": 0.5}
        ) == 2
        assert "t applies to the heat kernel only" in capsys.readouterr().err

    def test_bad_backend_flag(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0"})
        rc = main(["transport", "torus", "--config", cfg, "--backend", "warp",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_nonpositive_threads(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0"})
        rc = main(["transport", "torus", "--config", cfg, "--threads", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestConfigTypes:
    """A value of the wrong JSON type is a config error that names its key."""

    TORUS = {"manifold": "torus", "k": 8, "f": SMOOTH_F, "g": SMOOTH_G}
    SPHERE = {"manifold": "sphere", "k": 4, "f": "0", "g": "0"}
    ANTENNA = {"k": 4, "f": "0", "g": "0"}

    @pytest.mark.parametrize(
        "argv, payload, key",
        [
            (["transport", "torus"], dict(TORUS, tol="1e-9"), "tol"),
            (["transport", "torus"], dict(TORUS, A="2"), "A"),
            (["transport", "torus"], dict(TORUS, n="1"), "n"),
            (["transport", "torus"], dict(TORUS, f=1), "f"),
            (["transport", "torus"], dict(TORUS, k=64.0), "k"),
            (["transport", "torus"], dict(TORUS, k=32.5), "k"),
            (["transport", "torus"], dict(TORUS, m_max=2.5), "m_max"),
            (["transport", "torus"], dict(TORUS, A=True), "A"),
            (["transport", "torus"], dict(TORUS, A=None), "A"),
            (["transport", "torus"], dict(TORUS, A=float("inf")), "A"),
            (["transport", "torus"], dict(TORUS, tol=float("nan")), "tol"),
            (["transport", "sphere"], dict(SPHERE, W="16"), "W"),
            (["transport", "sphere"], dict(SPHERE, W=16.0), "W"),
            (["antenna"], dict(ANTENNA, tol=[1]), "tol"),
            (["diagnose", "sht"], {"W": "8"}, "W"),
            (["parabolic"], {"k_grid": 16, "f": "0", "g": "0", "T": 0.01,
                             "record_times": ["0.005"]}, "record_times"),
        ],
        ids=["tol-string", "A-string", "n-string", "f-number", "k-integral-float",
             "k-fraction", "m_max-fraction", "A-bool", "A-null", "A-infinity",
             "tol-nan", "W-string", "W-float", "tol-list", "diagnose-W-string",
             "record-times-strings"],
    )
    def test_wrong_type_rejected(self, tmp_path, capsys, argv, payload, key):
        rc = main(argv + ["--config", _cfg(tmp_path, payload),
                          "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [dict(TORUS, tol=0, m_max=5), dict(TORUS, A=2), dict(TORUS, tol=None, m_max=3)],
        ids=["tol-integer", "A-integer", "tol-null"],
    )
    def test_integers_and_null_tol_accepted(self, tmp_path, payload):
        out = tmp_path / "run"
        assert main(["transport", "torus", "--config", _cfg(tmp_path, payload),
                     "--out", str(out)]) == 0
        config = _summary(out)["config"]
        assert {key: config[key] for key in payload} == payload


class TestConfigRanges:
    """A value its command cannot use is a config error that names its key."""

    TORUS = {"manifold": "torus", "k": 16, "f": SMOOTH_F, "g": SMOOTH_G}

    @pytest.mark.parametrize(
        "argv, payload, key",
        [
            (["transport", "torus"], dict(TORUS, A=-1), "A"),
            (["transport", "torus"], dict(TORUS, A=0), "A"),
            (["transport", "torus", "--schedule-A", "0"], TORUS, "A"),
            (["transport", "torus", "--schedule-A", "-1"], TORUS, "A"),
            (["diagnose", "stationary-phase"], {"ks": []}, "ks"),
            (["diagnose", "stationary-phase"], {"ks": [128, 64]}, "ks"),
            (["diagnose", "density"], {"radius": -0.1}, "radius"),
            (["diagnose", "bench"], {"torus_sizes": []}, "torus_sizes"),
            (["diagnose", "bench"], {"torus_sizes": [256, 256]}, "torus_sizes"),
            (["diagnose", "bench"], {"sphere_bandwidths": [8]}, "sphere_bandwidths"),
        ],
        ids=["A-negative", "A-zero", "schedule-A-zero", "schedule-A-negative",
             "ks-empty", "ks-decreasing", "radius-negative", "torus-sizes-empty",
             "torus-sizes-repeated", "sphere-bandwidths-one"],
    )
    def test_out_of_range_rejected(self, tmp_path, capsys, argv, payload, key):
        rc = main(argv + ["--config", _cfg(tmp_path, payload),
                          "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config key {key!r} must be" in capsys.readouterr().err


class TestRemovedOptions:
    """Keys and values that nothing read are rejected, not silently accepted."""

    @pytest.mark.parametrize(
        "command, payload",
        [(["transport", "torus"], {"manifold": "torus", "k": 8, "f": "0", "g": "0"}),
         (["transport", "sphere"], {"manifold": "sphere", "k": 4, "f": "0", "g": "0"}),
         (["antenna"], {"k": 4, "f": "0", "g": "0"}),
         (["parabolic"], {"k_grid": 16, "f": "0", "g": "0", "T": 0.01})],
    )
    def test_seed_key_rejected(self, tmp_path, capsys, command, payload):
        cfg = _cfg(tmp_path, {**payload, "seed": 0})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_sphere_R_key_rejected(self, tmp_path, capsys):
        # the bandwidth is set by W alone; R once scaled its default
        cfg = _cfg(tmp_path, {"manifold": "sphere", "k": 4, "f": "0", "g": "0",
                              "R": 2.0})
        rc = main(["transport", "sphere", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'R'" in capsys.readouterr().err

    def test_torus_images_key_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0",
                              "kernel": "heat", "images": 5})
        rc = main(["transport", "torus", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'images'" in capsys.readouterr().err

    def test_torus_heat_backend_rejected(self, tmp_path):
        base = {"manifold": "torus", "k": 8, "f": "0", "g": "0"}
        cfg = _cfg(tmp_path, base)
        assert main(["transport", "torus", "--config", cfg, "--backend", "heat",
                     "--out", str(tmp_path / "o")]) == 2
        cfg = _cfg(tmp_path, {**base, "backend": "heat"}, name="heat.json")
        assert main(["transport", "torus", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


class TestTransportSphere:
    def test_small_instance_both_backends(self, tmp_path):
        base = {"manifold": "sphere", "k": 4, "W": 8,
                "f": "0.4*cos(theta)", "g": "0.4*sin(theta)*cos(phi)",
                "tol": 1e-9}
        cfg = _cfg(tmp_path, base)
        pots = {}
        for backend in ("sht", "direct"):
            out = tmp_path / backend
            rc = main(["transport", "sphere", "--config", cfg, "--out", str(out),
                       "--backend", backend])
            assert rc == 0
            summary = _summary(out)
            assert summary["stop_reason"] == "tol"
            assert summary["N"] == 18 * 18
            header, data = _csv(out / "potentials.csv")
            assert header == ("phi", "theta", "u", "v")
            pots[backend] = data
        np.testing.assert_allclose(pots["sht"], pots["direct"], atol=1e-8, rtol=0.0)

    def test_default_bandwidth_echoed(self, tmp_path):
        cfg = _cfg(tmp_path, {"manifold": "sphere", "k": 4, "f": "0", "g": "0"})
        out = tmp_path / "run"
        assert main(["transport", "sphere", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["config"]["W"] == 8  # 2k
        assert summary["backend"]["W"] == 8
        assert "R" not in summary["config"]

    def test_sphere_clouds_need_direct(self, tmp_path):
        cloud = tmp_path / "pts.txt"
        cloud.write_text(
            "sphere 0.3 1.2\nsphere 2.1 0.9\nsphere 4.0 2.2\n", encoding="utf-8"
        )
        cfg = _cfg(
            tmp_path,
            {"manifold": "sphere", "k": 4, "source_cloud": str(cloud),
             "target_cloud": str(cloud)},
        )
        rc = main(["transport", "sphere", "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_sphere_cloud_run(self, tmp_path, rng):
        def write(path, m):
            phi = rng.uniform(0.0, 2.0 * np.pi, m)
            theta = rng.uniform(0.4, np.pi - 0.4, m)
            with open(path, "w", encoding="utf-8") as fh:
                for a, b in zip(phi, theta):
                    fh.write(f"sphere {a:.8f} {b:.8f}\n")
            return str(path)

        cfg = _cfg(
            tmp_path,
            {"manifold": "sphere", "k": 6, "W": 12, "backend": "direct",
             "source_cloud": write(tmp_path / "s.txt", 10),
             "target_cloud": write(tmp_path / "t.txt", 7),
             "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "sphere", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["N"] == 10
        assert (out / "potentials_target.csv").exists()

    @staticmethod
    def _sphere_cloud(path, rng, m):
        phi = rng.uniform(0.0, 2.0 * np.pi, m)
        theta = rng.uniform(0.4, np.pi - 0.4, m)
        path.write_text("".join(f"sphere {a:.8f} {b:.8f}\n" for a, b in zip(phi, theta)),
                        encoding="utf-8")
        return str(path)

    def test_sphere_cloud_and_expression(self, tmp_path, rng):
        # either side may be a cloud, as on the torus
        cfg = _cfg(
            tmp_path,
            {"manifold": "sphere", "k": 4, "W": 8, "backend": "direct",
             "source_cloud": self._sphere_cloud(tmp_path / "s.txt", rng, 10),
             "g": "0.4*cos(theta)", "tol": 1e-9},
        )
        out = tmp_path / "run"
        assert main(["transport", "sphere", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["stop_reason"] == "tol" and summary["N"] == 10
        header, target = _csv(out / "potentials_target.csv")
        assert header == ("phi", "theta", "v") and target.shape == (18 * 18, 3)

    def test_sphere_clouds_build_no_grid(self, tmp_path, rng):
        # W = 200 is past the grid's bandwidth cap; clouds never sample on it
        cfg = _cfg(
            tmp_path,
            {"manifold": "sphere", "k": 6, "W": 200, "backend": "direct",
             "source_cloud": self._sphere_cloud(tmp_path / "s.txt", rng, 10),
             "target_cloud": self._sphere_cloud(tmp_path / "t.txt", rng, 7)},
        )
        out = tmp_path / "run"
        assert main(["transport", "sphere", "--config", cfg, "--out", str(out)]) == 0
        assert _summary(out)["N"] == 10

    def test_sphere_cloud_past_the_cap_rejected(self, tmp_path, capsys):
        cloud = tmp_path / "big.txt"
        angles = np.linspace(0.1, 3.0, 4097)
        cloud.write_text(
            "".join(f"sphere {2.0 * a:.8f} {a:.8f}\n" for a in angles), encoding="utf-8"
        )
        cfg = _cfg(
            tmp_path,
            {"manifold": "sphere", "k": 4, "W": 8, "backend": "direct",
             "source_cloud": str(cloud), "target_cloud": str(cloud)},
        )
        rc = main(["transport", "sphere", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cap" in capsys.readouterr().err


class TestAntenna:
    def test_uniform_marginals_give_unit_reflector(self, tmp_path):
        # f = g = const makes u = 0 an exact fixed point (the band-limited
        # kernel integrates exactly under the quadrature), so the height is
        # identically 1 and the reflected rays land antipodally on-grid
        cfg = _cfg(tmp_path, {"k": 6, "W": 12, "f": "0", "g": "0", "tol": 1e-12})
        out = tmp_path / "run"
        assert main(["antenna", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["stop_reason"] == "tol"
        assert abs(summary["h_min"] - 1.0) <= 1e-10
        assert abs(summary["h_max"] - 1.0) <= 1e-10
        assert summary["degenerate_normals"] == 0
        assert summary["pushforward_discrepancy"] <= 1e-10

        header, heights = _csv(out / "heights.csv")
        assert header == ("phi", "theta", "h")
        np.testing.assert_allclose(heights[:, 2], 1.0, atol=1e-10)

        dheader, dirs = _csv(out / "directions.csv")
        assert dheader == ("phi", "theta", "dx", "dy", "dz", "ok")
        norms = np.linalg.norm(dirs[:, 2:5], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_offset_target_artifacts(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"k": 6, "f": "0.5*cos(theta)", "g": "0.5*sin(theta)*cos(phi)",
             "tol": 1e-10},
        )
        out = tmp_path / "run"
        assert main(["antenna", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["W"] == 12  # default bandwidth is 2k
        assert summary["h_max"] > summary["h_min"] > 0.0
        assert summary["h_base"] == 1.0
        # binning granularity dominates the raw gap; blurring must shrink it
        assert summary["pushforward_smoothed"] < summary["pushforward_discrepancy"]

    def test_bandwidth_below_k_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, {"k": 8, "W": 4, "f": "0", "g": "0"})
        assert main(["antenna", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "kernel degree 8 exceeds grid bandwidth 4" in capsys.readouterr().err


class TestParabolic:
    def test_matched_forcing_stays_flat(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 32, "f": "0.2*cos(2*pi*x1)", "g": "0.2*cos(2*pi*x1)",
             "T": 0.5, "records": 4},
        )
        out = tmp_path / "run"
        assert main(["parabolic", "--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert summary["final_residual"] <= 1e-12
        # a constant trajectory has no exponential transient to fit
        assert summary["rate_fit"] is None

        header, rows = _csv(out / "trajectory.csv")
        assert header == ("t", "sup_change", "min_eig", "residual")
        assert rows.shape[0] == 4
        np.testing.assert_allclose(rows[:, 0], [0.125, 0.25, 0.375, 0.5])

    def test_relaxation_toward_steady_state(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 32, "f": "0.3*(1-cos(2*pi*x1))",
             "g": "0.3*(1-cos(2*pi*(x1-0.25)))", "T": 4.0,
             "record_times": [0.5, 1.0, 2.0, 4.0]},
        )
        out = tmp_path / "run"
        assert main(["parabolic", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _csv(out / "trajectory.csv")
        resid = rows[:, 3]
        assert resid[-1] < resid[0]
        assert _summary(out)["min_eig"] > 0.0

        fheader, final = _csv(out / "final_state.csv")
        assert fheader == ("x1", "u") and final.shape == (32, 2)

    def test_oversized_step_aborts(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 32, "f": "0.3*cos(2*pi*x1)", "g": "0.3*sin(2*pi*x1)",
             "T": 1.0, "dt": 1.0 / 32.0},
        )
        out = tmp_path / "run"
        assert main(["parabolic", "--config", cfg, "--out", str(out)]) == 3
        dump = json.loads((out / "abort.json").read_text(encoding="utf-8"))
        assert "error" in dump and "diagnostics" in dump

    def test_record_times_outside_horizon(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 16, "f": "0", "g": "0", "T": 1.0,
             "record_times": [0.5, 2.0]},
        )
        assert main(["parabolic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_negative_record_time_is_a_config_error(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 16, "f": "0", "g": "0", "T": 1.0,
             "record_times": [-0.1, 0.5]},
        )
        assert main(["parabolic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_empty_record_times_record_the_horizon(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 16, "f": "0.1*cos(2*pi*x1)", "g": "0.1*sin(2*pi*x1)",
             "T": 0.01, "record_times": []},
        )
        out = tmp_path / "run"
        assert main(["parabolic", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _csv(out / "trajectory.csv")
        np.testing.assert_allclose(rows[:, 0], [0.01], atol=1e-12)
        assert _summary(out)["T"] == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("dt", [0, -1e-4])
    def test_nonpositive_step_is_a_config_error(self, tmp_path, capsys, dt):
        cfg = _cfg(tmp_path, {"n": 1, "k_grid": 16, "f": "0", "g": "0", "T": 0.01,
                              "dt": dt})
        assert main(["parabolic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dt must be finite and positive" in capsys.readouterr().err

    def test_short_record_times_still_reach_the_horizon(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            {"n": 1, "k_grid": 16, "f": "0.1*cos(2*pi*x1)", "g": "0.1*sin(2*pi*x1)",
             "T": 0.01, "record_times": [0.002]},
        )
        out = tmp_path / "run"
        assert main(["parabolic", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _csv(out / "trajectory.csv")
        np.testing.assert_allclose(rows[:, 0], [0.002, 0.01], atol=1e-12)
        assert _summary(out)["T"] == pytest.approx(0.01, abs=1e-12)


class TestDiagnose:
    def test_sht_suite_passes(self, tmp_path):
        cfg = _cfg(tmp_path, {"W": 8, "seed": 3})
        out = tmp_path / "d"
        assert main(["diagnose", "sht", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "diagnose_sht.json").read_text(encoding="utf-8"))
        assert report["pass"] is True
        assert report["W"] == 8
        assert report["roundtrip_error"] <= 1e-10

    def test_density_suite_passes(self, tmp_path):
        out = tmp_path / "d"
        assert main(["diagnose", "density", "--out", str(out)]) == 0
        report = json.loads(
            (out / "diagnose_density.json").read_text(encoding="utf-8")
        )
        assert report["pass"] is True
        assert report["min"] >= report["bound"] - 1e-9

    @pytest.mark.slow
    def test_stationary_phase_suite_passes(self, tmp_path):
        out = tmp_path / "d"
        assert main(["diagnose", "stationary-phase", "--out", str(out)]) == 0
        report = json.loads(
            (out / "diagnose_stationary-phase.json").read_text(encoding="utf-8")
        )
        assert report["pass"] is True
        for r in report["rates"]:
            assert 1.5 <= r <= 2.8

    def test_bench_suite_plumbing(self, tmp_path):
        # tiny sizes exercise the wiring only; the slope bands are asserted
        # at real sizes by the acceptance suite. The 1-D solves and the
        # solver's route timings run at their fixed sizes.
        cfg = _cfg(tmp_path, {"torus_sizes": [256, 512],
                              "sphere_bandwidths": [4, 6]})
        out = tmp_path / "d"
        rc = main(["diagnose", "bench", "--config", cfg, "--out", str(out)])
        assert rc in (0, 1)
        report = json.loads((out / "diagnose_bench.json").read_text(encoding="utf-8"))
        assert len(report["torus"]) == 2 and len(report["sphere"]) == 2
        assert all(t > 0.0 for _, t in report["torus"] + report["sphere"])
        assert isinstance(report["torus_slope"], float)
        solves = report["torus_solves"]
        assert [rec["k"] for rec in solves] == [256, 1024]
        for rec in solves:
            assert rec["stop_reason"] == "tol" and rec["steps"] > 0
            assert rec["fft_fallbacks"] == 0 and rec["seconds"] > 0.0
            assert "fft_repaired" not in rec
        route = report["torus_route"]
        assert [k for k, _ in route] == [512, 1024, 2048, 4096]
        assert all(t > 0.0 for _, t in route)
        assert isinstance(report["torus_route_slope"], float)
        assert not any("1-D fft solve" in line for line in report["failures"])

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, {"Wx": 8, "sead": 3})
        rc = main(["diagnose", "sht", "--config", cfg, "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'Wx'" in err and "'sead'" in err
        assert not (tmp_path / "d" / "diagnose_sht.json").exists()

    def test_unknown_suite_rejected(self, tmp_path):
        assert main(["diagnose", "entropy", "--out", str(tmp_path / "o")]) == 2


class TestSharedReport:
    """The three Sinkhorn commands write one set of core artifacts."""

    CORE_KEYS = {"config", "k", "N", "m_stop", "stop_reason", "entropic_cost",
                 "cost_warning", "e_row", "e_col", "m_max", "backend",
                 "wall_time_ms", "environment"}

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["transport", "torus"],
             {"manifold": "torus", "k": 16, "f": SMOOTH_F, "g": SMOOTH_G}),
            (["transport", "sphere"],
             {"manifold": "sphere", "k": 4, "f": "0.4*cos(theta)", "g": "0"}),
            (["antenna"], {"k": 4, "f": "0", "g": "-0.5*cos(theta)"}),
        ],
        ids=["transport-torus", "transport-sphere", "antenna"],
    )
    def test_core_summary_and_artifacts(self, tmp_path, capsys, argv, payload):
        out = tmp_path / "run"
        cfg = _cfg(tmp_path, payload)
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
        summary = _summary(out)
        assert self.CORE_KEYS <= set(summary)
        assert summary["m_max"] == summary["config"]["m_max"] is not None
        assert summary["m_stop"] <= summary["m_max"]

        header, pots = _csv(out / "potentials.csv")
        assert header[-2:] == ("u", "v") and pots.shape[0] == summary["N"]
        _, trace = _csv(out / "trace.csv")
        assert trace.shape[0] == summary["m_stop"]
        line = capsys.readouterr().out
        assert line.startswith(f"stop={summary['stop_reason']} m={summary['m_stop']} cost=")

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["transport", "torus"],
             {"manifold": "torus", "k": 16, "f": SMOOTH_F, "g": SMOOTH_G}),
            (["transport", "torus"],
             {"manifold": "torus", "n": 2, "k": 8, "f": f"{SMOOTH_F} + cos(2*pi*x2)",
              "g": f"{SMOOTH_G} - cos(2*pi*x2)"}),
            (["transport", "torus", "--backend", "direct"],
             {"manifold": "torus", "k": 16, "f": SMOOTH_F, "g": SMOOTH_G}),
            (["transport", "sphere"],
             {"manifold": "sphere", "k": 4, "f": "0.4*cos(theta)", "g": "0"}),
            (["transport", "sphere", "--backend", "direct"],
             {"manifold": "sphere", "k": 4, "f": "0.4*cos(theta)", "g": "0"}),
            (["antenna"], {"k": 4, "f": "0", "g": "-0.5*cos(theta)"}),
        ],
        ids=["torus-1d-fft", "torus-2d-fft", "torus-direct", "sphere-sht",
             "sphere-direct", "antenna"],
    )
    def test_readout_is_the_last_step(self, tmp_path, monkeypatch, argv, payload):
        # run_until makes 2 applies per step plus one; the summary's errors
        # are its last record, with no further apply after the solve
        from geosink import cli

        applies = []

        def counting(build):
            def built(*args, **kwargs):
                app, xs, ys = build(*args, **kwargs)
                for name in ("softmin_to_target", "softmin_to_source"):
                    def count(values, apply=getattr(app, name)):
                        applies.append(name)
                        return apply(values)
                    setattr(app, name, count)
                return app, xs, ys
            return built

        monkeypatch.setattr(cli, "_build_applicator", counting(cli._build_applicator))
        out = tmp_path / "run"
        assert main(argv + ["--config", _cfg(tmp_path, payload), "--out", str(out)]) == 0
        summary = _summary(out)
        assert len(applies) == 2 * summary["m_stop"] + 1
        header, trace = _csv(out / "trace.csv")
        last = dict(zip(header, trace[-1]))
        assert (summary["e_row"], summary["e_col"]) == (last["e_row"], last["e_col"])


class TestSummaryEnvironment:
    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["transport", "torus"], {"manifold": "torus", "k": 8, "f": "0", "g": "0"}),
            (["transport", "sphere"],
             {"manifold": "sphere", "k": 4, "W": 8, "f": "0", "g": "0"}),
            (["antenna"], {"k": 4, "W": 8, "f": "0", "g": "0"}),
            (["parabolic"], {"n": 1, "k_grid": 16, "f": "0", "g": "0", "T": 0.01,
                             "records": 1}),
        ],
        ids=["transport-torus", "transport-sphere", "antenna", "parabolic"],
    )
    def test_summary_records_versions_and_threads(self, tmp_path, monkeypatch,
                                                  argv, payload):
        import platform

        import scipy

        for var in _THREAD_VARS:  # restored after the test; --threads sets them
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "run"
        cfg = _cfg(tmp_path, payload)
        assert main(argv + ["--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        env = _summary(out)["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["thread_env"] == {var: "1" for var in _THREAD_VARS}
        assert env["affinity"] == len(os.sched_getaffinity(0))
        assert env["blas_threads"] is None or env["blas_threads"] >= 1

    def test_blas_threads_in_effect_recorded(self, tmp_path):
        # numpy is loaded in this process already, so --threads takes
        # effect only in a fresh one
        src = str(Path(geosink.__file__).resolve().parent.parent)
        env = {key: val for key, val in os.environ.items() if key not in _THREAD_VARS}
        env["PYTHONPATH"] = src
        out = tmp_path / "run"
        cfg = _cfg(tmp_path, {"manifold": "torus", "k": 8, "f": "0", "g": "0"})
        subprocess.run([sys.executable, "-m", "geosink.cli", "transport", "torus",
                        "--config", cfg, "--out", str(out), "--threads", "1"],
                       env=env, capture_output=True, text=True, check=True)
        assert _summary(out)["environment"]["blas_threads"] in (1, None)


class TestEntryPoint:
    def test_help_exits_clean(self):
        assert main(["--help"]) == 0

    def test_no_arguments_shows_usage(self):
        assert main([]) == 2

    def test_cli_import_loads_no_numpy(self):
        # --threads only takes effect when it is set before numpy loads
        src = str(Path(geosink.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, geosink.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
