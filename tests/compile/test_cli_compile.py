"""``repro compile`` / ``repro profile`` CLI behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.compile import load_compiled


class TestCompileCommand:
    def test_fp32_compile_writes_servable_artifact(self, checkpoint_dir,
                                                   tmp_path, windows):
        out = tmp_path / "model.npz"
        report_path = tmp_path / "report.json"
        code = main(["compile", str(checkpoint_dir), "--fp32",
                     "--output", str(out), "--report", str(report_path),
                     "--max-abs-diff", "0"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["max_abs_diff"] == {
            "timestamp": 0.0, "instance": 0.0, "scores": 0.0}
        compiled = load_compiled(out)
        assert compiled.kind == "fp32"
        assert compiled.fingerprint == report["fingerprint"]

    def test_int8_gate_failure_exits_4(self, checkpoint_dir, tmp_path):
        code = main(["compile", str(checkpoint_dir), "--int8",
                     "--output", str(tmp_path / "gate.npz"),
                     "--max-abs-diff", "1e-6"])
        assert code == 4
        # the artifact is kept on disk for inspection
        assert (tmp_path / "gate.npz").is_file()

    def test_int8_gate_pass_within_tolerance(self, checkpoint_dir, tmp_path):
        code = main(["compile", str(checkpoint_dir), "--int8",
                     "--output", str(tmp_path / "ok.npz"),
                     "--max-abs-diff", "0.5"])
        assert code == 0

    def test_distilled_student_artifact(self, checkpoint_dir, tmp_path):
        out = tmp_path / "student.npz"
        code = main(["compile", str(checkpoint_dir), "--distill",
                     "--student-d-model", "16", "--student-heads", "2",
                     "--distill-epochs", "1", "--windows", "32",
                     "--output", str(out)])
        assert code == 0
        compiled = load_compiled(out)
        assert compiled.kind == "student-int8"
        assert compiled.config.d_model == 16

    def test_bad_source_exits_1(self, tmp_path, capsys):
        code = main(["compile", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "x.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_calibrate_spec_exits_1(self, checkpoint_dir, tmp_path,
                                        capsys):
        code = main(["compile", str(checkpoint_dir),
                     "--calibrate", "synthetic:not-a-number",
                     "--output", str(tmp_path / "x.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestProfileNoGrad:
    @pytest.mark.parametrize("extra", [["--no-grad"],
                                       ["--compiled"],
                                       ["--compiled", "int8"]])
    def test_inference_profile_runs(self, tmp_path, extra, capsys):
        out = tmp_path / "stats.json"
        code = main(["profile", "--steps", "2", "--batch-size", "2",
                     "--seq-len", "32", "--channels", "3",
                     "--output", str(out)] + extra)
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats   # op rows were recorded
        if "--compiled" in extra:
            assert any(name.startswith("packed.") for name in stats)
        captured = capsys.readouterr().out
        assert "encode passes" in captured

    def test_compiled_profile_has_no_autograd_rows(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["profile", "--steps", "2", "--batch-size", "2",
                     "--seq-len", "32", "--channels", "3", "--compiled",
                     "--output", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert all(name.startswith("packed.") for name in stats)


class TestProfileArguments:
    @pytest.mark.parametrize("mode", [[], ["--no-grad"], ["--compiled"]],
                             ids=["train", "no-grad", "compiled"])
    @pytest.mark.parametrize("flag", ["--steps", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_count_exits_2(self, mode, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", flag, value] + mode)
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [f"repro profile: error: argument {flag}: "
                          f"must be >= 1, got {int(value)}"]
