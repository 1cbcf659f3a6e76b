"""Command-line surface: parsing, exit codes, deterministic output."""

import json
import math

import numpy as np
import pytest

from xibergman.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_point_kernel_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--domain", "disk",
                           "--xi", "0: 1", "--p", "2", "--z", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["evaluation"]["K"] == pytest.approx(1 / math.pi, rel=1e-9)
        assert payload["seed"] == 42

    def test_first_order_irls_value(self, capsys):
        code, out, _ = run(capsys, "compute", "--domain", "disk",
                           "--xi", "1: 1", "--p", "1.5", "--z", "0",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "z_re,z_im,p,m,K,iterations,flag"
        assert float(row.split(",")[4]) == pytest.approx(3.5 / (2 * math.pi),
                                                         rel=1e-6)

    def test_off_diagonal_section(self, capsys):
        code, out, _ = run(capsys, "compute", "--domain", "disk",
                           "--xi", "0: 1", "--p", "2", "--z", "0.3",
                           "--pole", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["section_value_at_z"] == pytest.approx([1 / math.pi, 0.0],
                                                              abs=1e-10)
        assert payload["pole_identity_residual"] < 1e-10

    def test_inline_domain_spec(self, capsys):
        spec = json.dumps({"shape": "disk", "radius": 0.5, "center": [0.0, 0.0]})
        code, out, _ = run(capsys, "compute", "--domain", spec,
                           "--xi", "0: 1", "--p", "2", "--z", "0",
                           "--format", "csv")
        assert code == 0
        K = float(out.strip().splitlines()[1].split(",")[4])
        assert K == pytest.approx(4 / math.pi, rel=1e-9)

    def test_nonconvex_exponent_flags_exit(self, capsys):
        code, out, _ = run(capsys, "compute", "--domain", "disk",
                           "--xi", "0: 1", "--p", "0.5", "--z", "0",
                           "--format", "csv")
        assert code == 2
        assert "nonconvex-best-found" in out


    def test_seed_reaches_the_restarts(self, capsys, monkeypatch):
        # several seeds can give the same K, so watch the generator instead
        seeds = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        code, _, _ = run(capsys, "compute", "--domain", "disk",
                         "--xi", "0: 1", "--p", "0.5", "--z", "0",
                         "--seed", "7", "--format", "csv")
        assert code == 2
        assert seeds == [7]


class TestValidation:
    @pytest.mark.parametrize("argv,field", [
        (("compute", "--domain", "disk", "--xi", "0: 1", "--z", "0"), "p"),
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2"), "z"),
        (("compute", "--domain", "disk", "--p", "2", "--z", "0"), "xi"),
        (("compute", "--domain", "disk", "--xi", "0: 1", "--H", "z: 1",
          "--p", "2", "--z", "0"), "xi"),
        (("sweep", "--domain", "disk", "--xi", "0: 1", "--p", "2",
          "--a-grid", "-1,0.25"), "a-grid"),
        (("verify", "--suite", "bogus"), "suite"),
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--z", "0",
          "--angular-order", "0"), "angular-order"),
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--z", "0",
          "--radial-order", "0"), "radial-order"),
        (("compute", "--domain", "disk", "--xi", "0,x: 1", "--p", "2", "--z", "0"), "xi"),
        (("compute", "--domain", "disk", "--xi", "{", "--p", "2", "--z", "0"), "xi"),
        # z2 does not exist on the disk; it must not be read as the constant 1
        (("compute", "--domain", "disk", "--H", "z2: 1", "--p", "2", "--z", "0"), "H"),
        # a pole at the origin leaves only the domain to blame
        (("sweep", "--domain",
          '{"shape": "polydisc", "radii": [1, 1], "center": [[0.5, 0], [0, 0]]}',
          "--xi", "0,0: 1", "--p", "2", "--pole", "0,0", "--a-grid=-1:0:3"), "domain"),
        # orders below the quadrature's floor of 4 are the flag's fault
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--z", "0",
          "--radial-order", "3"), "radial-order"),
        (("sweep", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--pole", "0.5",
          "--a-grid=-1:0:3", "--angular-order", "2"), "angular-order"),
        # the lo:hi:count form goes through the same checks as a list
        (("sweep", "--domain", "disk", "--xi", "0: 1", "--p", "2",
          "--a-grid=0:1:3"), "a-grid"),
        (("sweep", "--domain", "disk", "--xi", "0: 1", "--p", "2",
          "--a-grid=0:-1:3"), "a-grid"),
        (("sweep", "--domain", "disk", "--xi", "0: 1", "--p", "2",
          "--a-grid=-1:0:0"), "a-grid"),
        # points outside the domain are the fault of their own flag
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--z", "1.5",
          "--pole", "0.2"), "z"),
        (("compute", "--domain", "disk", "--xi", "0: 1", "--p", "2", "--z", "0.2",
          "--pole", "1.5"), "pole"),
    ])
    def test_field_named_in_error(self, capsys, argv, field):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("config error: ")
        assert field in err.split(":")[1]

    def test_outside_point(self, capsys):
        code, _, err = run(capsys, "compute", "--domain", "disk",
                           "--xi", "0: 1", "--p", "2", "--z", "1.5")
        assert code == 1
        assert "outside" in err

    def test_rule_smaller_than_basis(self, capsys):
        # 4 x 4 rule (16 nodes) for the 17 monomials of degree 16
        code, _, err = run(capsys, "compute", "--domain", "disk",
                           "--xi", "1: 1", "--p", "1.5", "--z", "0.3",
                           "--radial-order", "4", "--angular-order", "4")
        assert code == 1
        assert "16 nodes" in err and "17 basis functions" in err

    def test_unknown_domain(self, capsys):
        code, _, err = run(capsys, "compute", "--domain", "blob",
                           "--xi", "0: 1", "--p", "2", "--z", "0")
        assert code == 1


class TestConfigFile:
    def test_defaults_come_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"domain": "disk", "xi": "1: 1",
                                   "p": 1.5, "format": "csv"}))
        code, out, _ = run(capsys, "compute", "--config", str(cfg), "--z", "0")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(
            3.5 / (2 * math.pi), rel=1e-6)

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"domain": "disk", "xi": "0: 1", "p": 1.5}))
        code, out, _ = run(capsys, "compute", "--config", str(cfg),
                           "--z", "0", "--p", "2", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "2"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "compute", "--config", str(cfg), "--z", "0")
        assert code == 1
        assert "bogus" in err

    def test_values_are_checked_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"radial_order": 12.5}))
        code, _, err = run(capsys, "compute", "--config", str(cfg),
                           "--xi", "0: 1", "--p", "2", "--z", "0")
        assert code == 1
        assert "radial_order" in err

    def test_keys_must_be_flags_of_the_subcommand(self, capsys, tmp_path):
        # --a-grid is a sweep flag only, so compute and verify refuse it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a_grid": "-1:0:3"}))
        for argv in (("compute", "--xi", "0: 1", "--p", "2", "--z", "0"),
                     ("verify", "--suite", "algebra")):
            code, _, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 1
            assert "a_grid" in err
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--xi", "0: 1",
                           "--p", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestSweep:
    def test_csv_default_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--domain", "disk",
                           "--xi", "0: 1", "--p", "2", "--a-grid", "-1:0:3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,K,scaled,logK,flag"
        assert len(lines) == 4
        scaled = {line.split(",")[2] for line in lines[1:]}
        assert len(scaled) == 1  # balanced models give a constant column

    def test_leading_dash_grid_accepted(self, capsys):
        code, out, _ = run(capsys, "sweep", "--domain", "disk",
                           "--xi", "0: 1", "--p", "2", "--a-grid", "-1,-0.5,0")
        assert code == 0

    def test_moebius_needs_unit_disk(self, capsys):
        code, _, err = run(capsys, "sweep", "--domain", "disk:0.8",
                           "--xi", "0: 1", "--p", "2", "--pole", "0.3",
                           "--a-grid", "-1:0:3")
        assert code == 1
        assert "pole" in err


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "algebra",
                           "--out", str(out_file))
        assert code == 0
        assert "PASS" in out
        report = json.loads(out_file.read_text())
        assert report["all_passed"] is True
        assert report["suite"] == "algebra"

    def test_budget_skips_are_failures(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "algebra",
                           "--budget", "0.0001")
        assert code == 2
        assert "skipped" in out


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(capsys, "compute", "--domain", "disk",
                             "--xi", "0: 1; 1: 0.5", "--p", "1.5",
                             "--z", "0.2", "--seed", "42", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
