import csv
import json
import math
import re

import pytest

from varipade.cli import main


def read_summary(out_dir):
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


FAST = ["--steps", "200", "--samples", "100", "--record-every", "50", "--seed", "0"]


class TestRun:
    def test_builtin_problem(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--problem", "shortest-path", "--structure", "Pade-[5/5]",
                     "--out", str(out)] + FAST)
        assert code == 0
        summary = read_summary(out)
        assert summary["structure"] == "Pade-[5/5]"
        assert summary["n_params"] == 12
        assert summary["status"] == "max_steps"
        assert summary["steps_done"] == 200 and summary["failure_step"] is None
        assert summary["j_exact"] == pytest.approx(2.8284271247461903)
        assert summary["relative_error"] == pytest.approx(
            (summary["j_exact"] - summary["j_final"]) / summary["j_exact"])
        rows = read_csv(out / "loss.csv")
        assert rows[0] == ["step", "loss", "j_gap"]
        assert [r[0] for r in rows[1:]] == ["0", "50", "100", "150", "200"]
        assert float(rows[-1][1]) == summary["j_final"]

    def test_unknown_builtin(self, tmp_path, capsys):
        code = main(["run", "--problem", "nope", "--structure", "Poly-3",
                     "--out", str(tmp_path / "x")] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        for name in ("shortest-path", "minimum-drag", "parabolic",
                     "cosine-source", "sine-source"):
            assert name in err

    def test_custom_problem(self, tmp_path):
        # J[y] = integral of dy^2 with y(0) = y(1) = 0 is minimized by y == 0
        out = tmp_path / "custom"
        code = main(["run", "--integrand", "dy^2", "--xa", "0", "--xb", "1",
                     "--ya", "0", "--yb", "0", "--structure", "Poly-3",
                     "--out", str(out), "--steps", "2000", "--samples", "100",
                     "--record-every", "500", "--seed", "0"])
        assert code == 0
        summary = read_summary(out)
        assert summary["j_exact"] is None
        assert summary["relative_error"] is None
        assert abs(summary["j_final"]) < 1e-4
        rows = read_csv(out / "loss.csv")
        assert all(r[2] == "" for r in rows[1:])  # no j_gap without a reference

    def test_failure_step_in_summary(self, tmp_path, capsys):
        # one point per grid: seed 2 first draws a point below 0.1 at step 18
        out = tmp_path / "failed"
        code = main(["run", "--integrand", "sqrt(x - 0.1) * dy^2", "--xa", "0", "--xb", "1",
                     "--ya", "0", "--yb", "1", "--structure", "Leg-3", "--out", str(out),
                     "--steps", "60", "--samples", "1", "--grid-mode", "random", "--seed", "2"])
        assert code == 2
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["steps_done"] == 18 and summary["failure_step"] == 18
        assert "sqrt of negative value" in capsys.readouterr().err

    def test_missing_structure(self, tmp_path, capsys):
        code = main(["run", "--problem", "parabolic", "--out", str(tmp_path / "x")] + FAST)
        assert code == 1
        assert "--structure" in capsys.readouterr().err

    def test_runs_are_byte_stable(self, tmp_path):
        args = ["run", "--problem", "sine-source", "--structure", "Poly-4"] + FAST
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/loss.csv").read_bytes() == (tmp_path / "b/loss.csv").read_bytes()

    def test_config_file_round_trip(self, tmp_path):
        out1 = tmp_path / "first"
        code = main(["run", "--problem", "sine-source", "--structure", "Poly-4",
                     "--out", str(out1)] + FAST)
        assert code == 0
        summary = read_summary(out1)
        # the echoed config must reproduce the run exactly
        cfg = dict(summary["config"])
        cfg["output_dir"] = str(tmp_path / "second")
        cfg_path = tmp_path / "rerun.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert read_summary(tmp_path / "second")["j_final"] == summary["j_final"]

    def test_negative_seed(self, tmp_path, capsys):
        code = main(["run", "--problem", "sine-source", "--structure", "Poly-3",
                     "--out", str(tmp_path / "x")] + FAST + ["--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad train config")

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1
        path.write_text(json.dumps({"problem": {"builtin": "parabolic"}}))
        assert main(["run", "--config", str(path)]) == 1
        assert "structure" in capsys.readouterr().err

    # a config file written before these knobs were removed fails loudly
    # instead of silently training with a different recipe
    @pytest.mark.parametrize("name, value", [
        ("early_stop", True),
        ("early_stop_tol", 1e-9),
        ("early_stop_window", 50),
        ("adam_beta1", 0.9),
        ("adam_beta2", 0.999),
        ("adam_eps", 1e-8),
        ("exponent_bounds", [0.5, 4.0]),
    ])
    def test_unknown_train_field(self, tmp_path, capsys, name, value):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"problem": {"builtin": "parabolic"}, "structure": "Poly-3",
                                    "train": {"steps": 10, name: value},
                                    "output_dir": str(tmp_path / "x")}))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown train config fields" in err and name in err
        assert not (tmp_path / "x").exists()

    # a field of the wrong JSON type is a configuration error, not a traceback
    @pytest.mark.parametrize("config, message", [
        ({"train": 5}, "config field 'train' must be an object"),
        ({"structure": 5}, "config field 'structure' must be a string"),
        ({"output_dir": 5}, "config field 'output_dir' must be a string"),
        ({"problem": 5}, "config field 'problem' must be an object"),
        ({"problem": {"integrand": 5, "x_a": 0, "x_b": 1, "y_a": 0, "y_b": 1}}, "integrand must be a string"),
        ({"problem": {"integrand": "dy^2", "x_a": [0], "x_b": 1, "y_a": 0, "y_b": 1}},
         "x_a must be a finite number, got [0]"),
        ({"problem": {"integrand": "dy^2", "x_a": "0", "x_b": 1, "y_a": 0, "y_b": 1}},
         "x_a must be a finite number, got '0'"),
        ({"problem": {"integrand": "dy^2", "x_a": 0, "x_b": True, "y_a": 0, "y_b": 1}},
         "x_b must be a finite number, got True"),
        ("not an object", "must be a JSON object"),
        ([1, 2], "must be a JSON object"),
    ])
    def test_config_field_of_the_wrong_type(self, tmp_path, capsys, config, message):
        if isinstance(config, dict):
            config = {"problem": {"builtin": "parabolic"}, "structure": "Poly-3",
                      "train": {"steps": 10}, "output_dir": str(tmp_path / "x"), **config}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["typed.json"]

    def test_retry_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "parabolic", "--structure", "Poly-3",
                  "--out", str(tmp_path / "x"), "--retry"] + FAST)
        assert exc.value.code == 2


class TestBench:
    def test_case_filter_and_outputs(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--cases", "1", "--structures", "Pade-[5/5]", "Poly-3",
                     "--out", str(out)] + FAST)
        assert code == 0
        table = read_csv(out / "table1.csv")
        assert table[0] == ["structure", "n_params", "j_final", "j_exact",
                            "relative_error", "status"]
        assert [r[0] for r in table[1:]] == ["Pade-[5/5]", "Poly-3"]
        assert table[1][1] == "12"
        assert table[1][5] == "max_steps"
        curves = read_csv(out / "curves1.csv")
        assert curves[0] == ["structure", "step", "loss", "j_gap"]
        by_structure = {r[0] for r in curves[1:]}
        assert by_structure == {"Pade-[5/5]", "Poly-3"}
        assert not (out / "table2.csv").exists()

    def test_unknown_case_index(self, tmp_path, capsys):
        code = main(["bench", "--cases", "9", "--out", str(tmp_path / "x")] + FAST)
        assert code == 1
        assert "1..5" in capsys.readouterr().err

    def test_bad_structure(self, tmp_path, capsys):
        code = main(["bench", "--cases", "1", "--structures", "Frob-2",
                     "--out", str(tmp_path / "x")] + FAST)
        assert code == 1

    @pytest.mark.parametrize("flags", [["--lr", "0"], ["--lr", "nan"], ["--seed", "-1"]])
    def test_bad_train_flags(self, tmp_path, capsys, flags):
        code = main(["bench", "--cases", "1", "--structures", "Poly-3",
                     "--out", str(tmp_path / "x")] + FAST + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad train config")

    def test_zero_seeds(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["bench", "--cases", "1", "--structures", "Poly-3", "--seeds", "0",
                     "--out", str(out)] + FAST)
        assert code == 1
        assert capsys.readouterr().err == "error: --seeds must be at least 1, got 0\n"
        assert not out.exists()

    def test_zero_parallel(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["bench", "--cases", "1", "--structures", "Poly-3", "--parallel", "0",
                     "--out", str(out)] + FAST)
        assert code == 1
        assert capsys.readouterr().err == "error: --parallel must be at least 1, got 0\n"
        assert not out.exists()

    def test_multi_seed(self, tmp_path):
        out = tmp_path / "seeds"
        code = main(["bench", "--cases", "5", "--structures", "Poly-3", "--seeds", "3",
                     "--out", str(out), "--steps", "150", "--samples", "64",
                     "--record-every", "50", "--seed", "0"])
        assert code == 0
        table = read_csv(out / "table5.csv")
        assert len(table) == 2
        assert table[1][5] == "max_steps"


class TestPlot:
    def _curves_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["structure", "step", "loss", "j_gap"])
            for s in range(0, 200, 50):
                writer.writerow(["Pade-[5/5]", s, repr(3.0 - s / 100.0), ""])
                writer.writerow(["Poly-3", s, repr(4.0 - s / 100.0), ""])

    def test_two_series_two_polylines(self, tmp_path):
        src = tmp_path / "curves.csv"
        self._curves_csv(src)
        dst = tmp_path / "curves.svg"
        assert main(["plot", str(src), str(dst)]) == 0
        svg = dst.read_text()
        assert svg.count("<polyline") == 2
        assert "Pade-[5/5]" in svg and "Poly-3" in svg

    def test_single_run_header(self, tmp_path):
        src = tmp_path / "loss.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "j_gap"])
            writer.writerows([[0, "2.0", ""], [50, "1.5", ""]])
        dst = tmp_path / "loss.svg"
        assert main(["plot", str(src), str(dst)]) == 0
        assert dst.read_text().count("<polyline") == 1

    def test_empty_csv(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("structure,step,loss,j_gap\n")
        assert main(["plot", str(src), str(tmp_path / "x.svg")]) == 1
        assert "no data" in capsys.readouterr().err

    def test_logy_warns_about_nonpositive(self, tmp_path, capsys):
        src = tmp_path / "curves.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "j_gap"])
            writer.writerows([[0, "2.0", ""], [50, "-1.0", ""], [100, "0.5", ""]])
        assert main(["plot", str(src), str(tmp_path / "x.svg"), "--logy"]) == 0
        assert "dropped 1" in capsys.readouterr().err

    @pytest.mark.parametrize("losses", [["1.0", "nan", "0.5"], ["2.0", "inf", "0.5"]],
                             ids=["nan-in-the-middle", "inf"])
    def test_non_finite_losses_are_dropped(self, tmp_path, capsys, losses):
        src = tmp_path / "loss.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "j_gap"])
            writer.writerows([[50 * i, loss, ""] for i, loss in enumerate(losses)])
        dst = tmp_path / "loss.svg"
        assert main(["plot", str(src), str(dst)]) == 0
        assert "dropped 1 non-finite loss values" in capsys.readouterr().err
        svg = dst.read_text()
        assert svg.count("<polyline") == 1
        points = svg.split('<polyline points="')[1].split('"')[0].replace(",", " ").split()
        assert len(points) == 4 and all(math.isfinite(float(p)) for p in points)

    def test_all_nan_losses_leave_nothing_to_plot(self, tmp_path, capsys):
        # the loss.csv of a run that failed at step 0
        src = tmp_path / "loss.csv"
        src.write_text("step,loss,j_gap\n0,nan,\n")
        dst = tmp_path / "loss.svg"
        assert main(["plot", str(src), str(dst)]) == 1
        assert "no plottable points" in capsys.readouterr().err
        assert not dst.exists()

    def test_a_finite_loss_range_that_overflows(self, tmp_path):
        # 1e308 - (-1e308) overflows, though both losses are finite
        src = tmp_path / "loss.csv"
        src.write_text("step,loss,j_gap\n0,1e308,\n1,-1e308,\n")
        dst = tmp_path / "loss.svg"
        assert main(["plot", str(src), str(dst)]) == 0
        svg = dst.read_text()
        assert svg.count("<polyline") == 1
        assert not re.search(r"(?<![a-z])(nan|inf)", svg, re.IGNORECASE)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "none.csv"), str(tmp_path / "x.svg")]) == 1


class TestSeedEnv:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARIPADE_SEED", "7")
        out = tmp_path / "env"
        code = main(["run", "--problem", "sine-source", "--structure", "Poly-3",
                     "--out", str(out), "--steps", "100", "--samples", "64",
                     "--record-every", "50"])
        assert code == 0
        assert read_summary(out)["config"]["train"]["seed"] == 7

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VARIPADE_SEED", "lots")
        code = main(["run", "--problem", "sine-source", "--structure", "Poly-3",
                     "--out", str(tmp_path / "x"), "--steps", "100", "--samples", "64",
                     "--record-every", "50"])
        assert code == 1
        assert "VARIPADE_SEED" in capsys.readouterr().err
