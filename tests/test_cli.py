import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcs_qkd
from mcs_qkd import DegenerateInputError
from mcs_qkd import cli, fock_oracle
from mcs_qkd.cli import main

FAST_FIGURE2 = "grid_points = 60\nl_step_km = 5\nl_max_km = 30\n"


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data[1:]]
    return comments, rows


def parse_stdout_rows(out: str):
    data = [line for line in out.splitlines() if line and not line.startswith("#")]
    header = data[0].split(",")
    return [dict(zip(header, line.split(","))) for line in data[1:]]


class TestRateCommand:
    def test_single_point(self, capsys):
        code = main(["rate", "--family", "coherent-bb84", "--alpha2", "0.1", "--l", "5"])
        assert code == 0
        rows = parse_stdout_rows(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["family"] == "coherent-bb84"
        assert float(row["eta"]) == pytest.approx(10 ** (-0.2) * 0.18, rel=1e-12)
        # a positive rate of the same order as the curve's maximum at 5 km
        assert 1e-4 < float(row["R"]) < 1e-2

    def test_vacuum_squeeze_gives_zero_rate(self, capsys):
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0", "--l", "5"])
        assert code == 0
        rows = parse_stdout_rows(capsys.readouterr().out)
        assert float(rows[0]["R"]) == 0.0

    def test_defaults_file_orders_families_like_figure1(self, tmp_path, capsys):
        config = tmp_path / "defaults.cfg"
        config.write_text("alpha2 = 0.1\nnu = 0.3\n", encoding="utf-8")
        rates = {}
        for family in ("coherent-bb84", "mcs-bb84", "mcs-sarg04"):
            code = main(["rate", "--config", str(config), "--family", family, "--l", "5"])
            assert code == 0
            rates[family] = float(parse_stdout_rows(capsys.readouterr().out)[0]["R"])
        assert rates["mcs-sarg04"] > rates["mcs-bb84"] > rates["coherent-bb84"] > 0.0

    def test_missing_param_names_offending_key(self, capsys):
        code = main(["rate", "--family", "mcs-bb84", "--l", "5"])
        assert code == 2
        assert "nu" in capsys.readouterr().err

    def test_missing_family(self, capsys):
        code = main(["rate", "--alpha2", "0.1"])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_wrong_param_kind_rejected(self, capsys):
        code = main(["rate", "--family", "coherent-bb84", "--nu", "0.3"])
        assert code == 2
        assert "alpha2" in capsys.readouterr().err

    def test_multiple_points_stream(self, capsys):
        code = main([
            "rate", "--family", "mcs-bb84",
            "--nu", "0.1", "--nu", "0.3", "--l", "0", "--l", "5",
        ])
        assert code == 0
        assert len(parse_stdout_rows(capsys.readouterr().out)) == 4


class TestConfigHandling:
    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("darkness = 1\n", encoding="utf-8")
        code = main(["verify", "--config", str(config)])
        assert code == 2
        assert "darkness" in capsys.readouterr().err

    def test_malformed_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dark_prob_Pd = lots\n", encoding="utf-8")
        code = main(["rate", "--config", str(config), "--family", "mcs-bb84", "--nu", "0.1"])
        assert code == 2
        assert "dark_prob_Pd" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        code = main(["verify", "--config", "/nonexistent/path.cfg"])
        assert code == 2

    def test_unknown_family_in_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("family = bogus\nalpha2 = 0.1\n", encoding="utf-8")
        assert main(["rate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: unknown family 'bogus'\n"

    def test_out_of_domain_parameter_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("baseline_error_c = 0.5\n", encoding="utf-8")
        code = main(["rate", "--config", str(config), "--family", "mcs-bb84", "--nu", "0.1"])
        assert code == 2

    def test_no_detection_events_exits_2_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "silent.cfg"
        config.write_text("dark_prob_Pd = 0\n", encoding="utf-8")
        code = main(["rate", "--config", str(config), "--family", "mcs-bb84", "--nu", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("config error:")
        assert "no detection events" in err_lines[0]

    def test_degenerate_input_from_any_command_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_events(*args, **kwargs):
            raise DegenerateInputError("no detection events")

        monkeypatch.setattr(cli, "sweep_distance", no_events)
        assert main(["figure2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: no detection events"]

    def test_readme_config_block_is_a_working_config_file(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Config keys\n.*?```\n(.*?)```", readme, re.S).group(1)
        config = tmp_path / "readme.cfg"
        config.write_text(block, encoding="utf-8")
        cfg = cli.build_config(cli.build_parser().parse_args(["rate", "--config", str(config)]))
        assert (cfg.family, cfg.alpha2, cfg.nu) == ("mcs-bb84", 0.1, 0.25)
        assert dataclasses.replace(cfg, family=None, alpha2=None, nu=None) == cli.RunConfig()

    def test_unwritable_out_dir_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main(["figure1", "--out", str(blocker)])
        assert code == 3


class TestFPolicy:
    def test_constant_spec(self, capsys):
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0.2", "--f-policy", "const:1.0"])
        assert code == 0
        assert float(parse_stdout_rows(capsys.readouterr().out)[0]["f"]) == 1.0

    def test_table_spec(self, tmp_path, capsys):
        table = tmp_path / "f.csv"
        table.write_text("e,f\n0.0,1.05\n0.1,1.3\n", encoding="utf-8")
        code = main([
            "rate", "--family", "mcs-bb84", "--nu", "0.2",
            "--f-policy", f"table:{table}",
        ])
        assert code == 0
        f_value = float(parse_stdout_rows(capsys.readouterr().out)[0]["f"])
        assert 1.05 < f_value < 1.3

    def test_empty_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "f.csv"
        table.write_text("e,f\n", encoding="utf-8")
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0.2",
                     "--f-policy", f"table:{table}"])
        assert code == 2

    @pytest.mark.parametrize("bad_row", ["0.1,nan", "0.1,-1.2", "0.1,0", "inf,1.2"])
    def test_bad_table_exits_2_with_one_line(self, tmp_path, capsys, bad_row):
        table = tmp_path / "f.csv"
        table.write_text(f"e,f\n0.0,1.05\n{bad_row}\n", encoding="utf-8")
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0.2",
                     "--f-policy", f"table:{table}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("config error:")

    def test_header_after_comment_lines(self, tmp_path, capsys):
        table = tmp_path / "f.csv"
        table.write_text("# measured code efficiencies\n\ne,f\n0.0,1.05\n0.1,1.3\n",
                         encoding="utf-8")
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0.2",
                     "--f-policy", f"table:{table}"])
        assert code == 0
        f_value = float(parse_stdout_rows(capsys.readouterr().out)[0]["f"])
        assert 1.05 < f_value < 1.3

    def test_bad_spec_exits_2(self, capsys):
        code = main(["rate", "--family", "mcs-bb84", "--nu", "0.2", "--f-policy", "fancy"])
        assert code == 2


class TestFigure1:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        assert main(["figure1", "--out", str(out)]) == 0
        comments, rows = read_csv(out / "figure1.csv")
        eta_line = next(line for line in comments if "eta_db" in line)
        assert float(eta_line.split("=")[1]) == pytest.approx(-9.45, abs=0.005)
        assert any("sign = corrected" in line for line in comments)
        svg = (out / "figure1.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 3
        assert "secure rate per slot" in svg

        for family in ("coherent-bb84", "mcs-bb84", "mcs-sarg04"):
            rates = [float(r["R"]) for r in rows if r["family"] == family]
            best = max(range(len(rates)), key=rates.__getitem__)
            assert 0 < best < len(rates) - 1, f"{family} maximum not interior"
            assert rates[best] > 0.0

    def test_byte_for_byte_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["figure1", "--out", str(out_a)]) == 0
        assert main(["figure1", "--out", str(out_b)]) == 0
        assert (out_a / "figure1.csv").read_bytes() == (out_b / "figure1.csv").read_bytes()
        assert (out_a / "figure1.svg").read_bytes() == (out_b / "figure1.svg").read_bytes()

    def test_no_dark_counts_drops_only_the_vacuum_rows(self, tmp_path, capsys):
        config = tmp_path / "silent.cfg"
        config.write_text("dark_prob_Pd = 0\nfig1_points = 11\n", encoding="utf-8")
        out = tmp_path / "fig1"
        assert main(["figure1", "--config", str(config), "--out", str(out)]) == 0
        _, rows = read_csv(out / "figure1.csv")
        for family in ("coherent-bb84", "mcs-bb84", "mcs-sarg04"):
            params = [float(r["param"]) for r in rows if r["family"] == family]
            assert params == [0.6 * i / 10 for i in range(1, 11)]
        assert all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k != "family")

    def test_shorter_distance_raises_all_curves(self, tmp_path):
        near, far = tmp_path / "near", tmp_path / "far"
        assert main(["figure1", "--l", "0", "--out", str(near)]) == 0
        assert main(["figure1", "--l", "5", "--out", str(far)]) == 0
        for family in ("coherent-bb84", "mcs-bb84", "mcs-sarg04"):
            best_near = max(
                float(r["R"]) for r in read_csv(near / "figure1.csv")[1]
                if r["family"] == family
            )
            best_far = max(
                float(r["R"]) for r in read_csv(far / "figure1.csv")[1]
                if r["family"] == family
            )
            assert best_near > best_far

    def test_literal_sign_is_annotated_and_changes_rates(self, tmp_path):
        base, literal = tmp_path / "base", tmp_path / "lit"
        assert main(["figure1", "--out", str(base)]) == 0
        assert main(["figure1", "--paper-literal-sign", "--out", str(literal)]) == 0
        comments, lit_rows = read_csv(literal / "figure1.csv")
        assert any("sign = paper-literal" in line for line in comments)
        _, base_rows = read_csv(base / "figure1.csv")
        base_max = max(float(r["R"]) for r in base_rows)
        lit_max = max(float(r["R"]) for r in lit_rows)
        assert lit_max > base_max  # the additive sign credits errors with rate


class TestFigure2:
    def test_fast_run(self, tmp_path, capsys):
        config = tmp_path / "fast.cfg"
        config.write_text(FAST_FIGURE2, encoding="utf-8")
        out = tmp_path / "fig2"
        assert main(["figure2", "--config", str(config), "--out", str(out)]) == 0
        comments, rows = read_csv(out / "figure2.csv")

        by_family = {}
        for row in rows:
            by_family.setdefault(row["family"], {})[float(row["l"])] = float(row["R"])
        common = set.intersection(*(set(d) for d in by_family.values()))
        assert common, "no distance where all three families are secure"
        for distance in common:
            assert (
                by_family["mcs-sarg04"][distance]
                > by_family["mcs-bb84"][distance]
                > by_family["coherent-bb84"][distance]
            )

        # optimal rate non-increasing with distance for every family
        for rates_by_l in by_family.values():
            ordered = [rates_by_l[l] for l in sorted(rates_by_l)]
            assert all(b <= a + 1e-12 for a, b in zip(ordered, ordered[1:]))

        # coherent BB84 cuts off inside the 30 km range; its rows carry the cutoff
        coherent_rows = [r for r in rows if r["family"] == "coherent-bb84"]
        cutoffs = {r["cutoff_km"] for r in coherent_rows}
        assert len(cutoffs) == 1
        assert 20.0 < float(cutoffs.pop()) < 30.0

        svg = (out / "figure2.svg").read_text(encoding="utf-8")
        assert "1e-" in svg  # decade labels on the log rate axis
        stdout = capsys.readouterr().out
        assert "cutoff[coherent-bb84]" in stdout

    def test_family_never_secure_gets_its_own_note(self, tmp_path, capsys):
        # at 0 and 100 km only, two families are insecure at both distances
        config = tmp_path / "dark.cfg"
        config.write_text("dark_prob_Pd = 0.015\nl_step_km = 100\n", encoding="utf-8")
        out = tmp_path / "fig2"
        assert main(["figure2", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "cutoff[coherent-bb84]: insecure at every distance",
            "cutoff[mcs-bb84]: insecure at every distance",
            "cutoff[mcs-sarg04]: 3.82 km",
        ]
        _, rows = read_csv(out / "figure2.csv")
        assert [row["family"] for row in rows] == ["mcs-sarg04"]

    def test_family_secure_over_the_whole_range_has_no_cutoff(self, tmp_path, capsys):
        config = tmp_path / "fast.cfg"
        config.write_text(FAST_FIGURE2 + "l_max_km = 10\n", encoding="utf-8")
        assert main(["figure2", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            f"cutoff[{family}]: none within 10 km"
            for family in ("coherent-bb84", "mcs-bb84", "mcs-sarg04")
        ]


class TestVerifyCommand:
    def test_default_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out)]) == 0
        comments, rows = read_csv(out / "verify.csv")
        assert rows
        assert all(row["within_tol"] == "true" for row in rows)
        assert "verification passed" in capsys.readouterr().out

    def test_eta_endpoint_skips_quadrature_but_checks_fock(self, tmp_path, capsys):
        config = tmp_path / "endpoint.cfg"
        config.write_text("verify_etas = 0.0\nverify_alphas = 0.5\nverify_nus = 0.3\n",
                          encoding="utf-8")
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        _, rows = read_csv(out / "verify.csv")
        assert rows
        assert all(row["method"] == "FockSum" for row in rows)

    def test_corrupted_closed_form_exits_1(self, tmp_path, capsys, monkeypatch):
        exact = fock_oracle.p_vacuum_lossy
        monkeypatch.setattr(fock_oracle, "p_vacuum_lossy", lambda state, eta: exact(state, eta) + 1e-5)
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out
        _, rows = read_csv(out / "verify.csv")
        failed = {row["formula"] for row in rows if row["within_tol"] == "false"}
        assert failed == {"p_vacuum_lossy"}

    @staticmethod
    def run_verify(tmp_path, config_text):
        config = tmp_path / "grid.cfg"
        config.write_text(config_text, encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "mcs_qkd", "verify", "--config", str(config),
             "--out", str(tmp_path / "verify")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(mcs_qkd.__file__).parents[1])},
        )

    @pytest.mark.parametrize("grid", ["verify_nus = 3\n", "verify_alphas = 12\n"])
    def test_unresolved_fock_truncation_exits_2(self, tmp_path, grid):
        proc = self.run_verify(tmp_path, grid)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert proc.stderr.rstrip().endswith("raise fock_n_max")
        assert proc.stderr.count("\n") == 1

    def test_fock_order_above_its_bound_exits_2(self, tmp_path):
        # alpha = 40 underflows the leading amplitude, so an unbounded order would run to the end
        proc = self.run_verify(tmp_path, "verify_alphas = 40\noracle_fock_n_max = 100001\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "config error: need 8 <= n_max <= 100000, got 100001\n"


# (config key, command, other config lines, value in the file alone, value in the
# file under the flag, flag, text the file alone gives, text the flag gives)
OVERRIDES = [
    ("out_dir", ["figure1"], "fig1_points = 3\n", "from_file", "from_file",
     ["--out", "from_flag"], "wrote from_file/figure1.csv", "wrote from_flag/figure1.csv"),
    ("f_policy", ["rate", "--family", "mcs-bb84", "--nu", "0.2"], "", "const:1.3", "const:1.3",
     ["--f-policy", "const:1.1"], "# f_policy = const:1.3\n", "# f_policy = const:1.1\n"),
    ("paper_literal_sign", ["rate", "--family", "mcs-bb84", "--nu", "0.2"], "", "true", "false",
     ["--paper-literal-sign"], "# sign = paper-literal\n", "# sign = paper-literal\n"),
    ("family", ["rate"], "alpha2 = 0.1\nnu = 0.2\n", "mcs-sarg04", "mcs-sarg04",
     ["--family", "coherent-bb84"], "\nmcs-sarg04,5,", "\ncoherent-bb84,5,"),
    ("distance_km", ["figure1"], "fig1_points = 3\n", "3", "3",
     ["--l", "0"], "# distance_km = 3\n", "# distance_km = 0\n"),
    ("l_max_km", ["figure2"], "grid_points = 40\nl_step_km = 5\n", "10", "10",
     ["--l-max", "15"], "# l_max_km = 10\n", "# l_max_km = 15\n"),
    ("l_step_km", ["figure2"], "grid_points = 40\nl_max_km = 10\n", "5", "5",
     ["--l-step", "2.5"], "# l_step_km = 5\n", "# l_step_km = 2.5\n"),
    ("oracle_fock_n_max", ["verify"], "verify_alphas = 0.5\nverify_nus = 0.3\nverify_etas = 0.5\n",
     "64", "64", ["--fock-n-max", "100"], "# fock_n_max = 64\n", "# fock_n_max = 100\n"),
    ("oracle_quad_nodes", ["verify"], "verify_alphas = 0.5\nverify_nus = 0.3\nverify_etas = 0.5\n",
     "48", "48", ["--quad-nodes", "40"], "# quad_nodes = 48\n", "# quad_nodes = 40\n"),
]


def run_in(directory: Path, argv, capsys) -> str:
    """Run the CLI from ``directory``; its stdout plus every CSV it wrote there."""
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert main(argv) == 0
    finally:
        os.chdir(cwd)
    csvs = "".join(path.read_text(encoding="utf-8") for path in sorted(directory.rglob("*.csv")))
    return capsys.readouterr().out + csvs


class TestConfigPrecedence:
    @pytest.mark.parametrize("case", OVERRIDES, ids=[case[0] for case in OVERRIDES])
    def test_key_takes_effect_and_flag_beats_it(self, tmp_path, capsys, case):
        key, argv, other, alone, under_flag, flag, file_effect, flag_effect = case
        config_alone, config_flag = tmp_path / "alone.cfg", tmp_path / "flag.cfg"
        config_alone.write_text(f"{other}{key} = {alone}\n", encoding="utf-8")
        config_flag.write_text(f"{other}{key} = {under_flag}\n", encoding="utf-8")
        alone_out = run_in(tmp_path / "alone", [*argv, "--config", str(config_alone)], capsys)
        assert file_effect in alone_out
        flagged = run_in(tmp_path / "flag", [*argv, "--config", str(config_flag), *flag], capsys)
        assert flag_effect in flagged
        if file_effect != flag_effect:
            assert file_effect not in flagged

    def test_every_override_flag_is_covered(self):
        parser = cli.build_parser()
        dests = {
            action.dest
            for sub in parser._subparsers._group_actions[0].choices.values()
            for action in sub._actions
        }
        assert dests & set(cli._COERCERS) == {case[0] for case in OVERRIDES}

    def test_help_states_the_run_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure2", "--help"])
        out = capsys.readouterr().out
        assert "largest distance in km (default 100)" in out
        assert "(default const:1.16)" in out and "(default '.')" in out


def one_config_error(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("config error:")
    return lines[0]


class TestRangeAndSizeLimits:
    @pytest.mark.parametrize("entry", [
        "cutoff_resolution_km = nan", "cutoff_resolution_km = 0", "cutoff_resolution_km = -1",
        "l_max_km = nan", "l_max_km = inf", "l_step_km = nan", "l_step_km = inf",
        # one distance past the limit: ceil((l_max + l_step / 2) / l_step) = 100,001
        "l_max_km = 100000\nl_step_km = 1\ngrid_points = 2",
        "grid_points = 100001",
    ])
    def test_figure2_rejects(self, tmp_path, capsys, entry):
        config = tmp_path / "bad.cfg"
        config.write_text(FAST_FIGURE2 + entry + "\n", encoding="utf-8")
        assert main(["figure2", "--config", str(config), "--out", str(tmp_path)]) == 2
        one_config_error(capsys)
        assert not (tmp_path / "figure2.csv").exists()

    @pytest.mark.parametrize("argv, config_text", [
        (["rate", "--family", "mcs-sarg04", "--nu", "1e154", "--l", "5"], ""),
        (["figure2"], "param_max = 1e200\n"),
    ])
    def test_source_parameter_above_100_is_one_config_error(self, tmp_path, argv, config_text):
        # far above the bound the closed forms overflow and numpy warns
        config = tmp_path / "run.cfg"
        config.write_text(config_text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "mcs_qkd", *argv, "--config", str(config),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(mcs_qkd.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("config error: ") and "<= 100" in proc.stderr

    @pytest.mark.parametrize("flags", [["--l-max", "inf"], ["--l-step", "nan"]])
    def test_figure2_rejects_flags(self, tmp_path, capsys, flags):
        assert main(["figure2", "--out", str(tmp_path), *flags]) == 2
        one_config_error(capsys)

    @pytest.mark.parametrize("entry", ["fig1_points = 100001", "fig1_param_max = inf",
                                       "fig1_param_max = nan"])
    def test_figure1_rejects(self, tmp_path, capsys, entry):
        config = tmp_path / "bad.cfg"
        config.write_text(entry + "\n", encoding="utf-8")
        assert main(["figure1", "--config", str(config), "--out", str(tmp_path)]) == 2
        one_config_error(capsys)

    def test_figure1_rejects_a_distance_where_the_efficiency_underflows(self, tmp_path, capsys):
        assert main(["figure1", "--l", "20000", "--out", str(tmp_path)]) == 2
        assert "underflows" in one_config_error(capsys)

    def test_verify_rejects_quadrature_nodes_above_limit(self, tmp_path, capsys):
        config = tmp_path / "one.cfg"
        config.write_text("verify_alphas = 0.5\nverify_nus = 0.3\nverify_etas = 0.5\n",
                          encoding="utf-8")
        code = main(["verify", "--config", str(config), "--out", str(tmp_path),
                     "--quad-nodes", "1025"])
        assert code == 2
        assert "<= 256" in one_config_error(capsys)


# Small accepted values per config key; each key may also draw a value the
# configuration path must reject.
_SMALL = {
    "loss_coeff_a": st.floats(0.1, 0.3),
    "receiver_loss_L": st.floats(0.0, 2.0),
    "detector_eff": st.floats(0.05, 0.5),
    "dark_prob_Pd": st.floats(0.0, 1e-3),
    "baseline_error_c": st.floats(0.0, 0.02),
    "f_policy": st.sampled_from(["const:1.16", "const:1.0", "const:nan", "const:-1", "fancy"]),
    "paper_literal_sign": st.sampled_from(["true", "false", "maybe"]),
    "distance_km": st.floats(0.0, 30.0),
    "l_max_km": st.floats(0.5, 30.0),
    "l_step_km": st.floats(0.5, 10.0),
    "family": st.sampled_from(["coherent-bb84", "mcs-bb84", "mcs-sarg04", "bogus"]),
    "alpha2": st.floats(0.0, 1.0),
    "nu": st.floats(0.0, 1.0),
    "param_min": st.floats(1e-6, 1e-2),
    "param_max": st.floats(0.5, 4.0),
    "grid_points": st.integers(2, 50),
    "golden_rtol": st.floats(1e-12, 0.1),
    "cutoff_resolution_km": st.floats(1e-6, 1.0),
    "fig1_param_max": st.floats(0.01, 1.0),
    "fig1_points": st.integers(2, 50),
    "oracle_fock_n_max": st.integers(8, 128),
    "oracle_quad_nodes": st.integers(32, 48),
    "verify_alphas": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2),
    "verify_nus": st.lists(st.floats(0.0, 0.8), min_size=1, max_size=2),
    "verify_etas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
}
_BAD = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.0", "5e-324", "1e-300", "1e300",
                        "1.7976931348623157e308", "100", "100.00000000000001"])
#: Keeps runs small when the draw leaves a size key out.
_SMALL_BASE = ("l_max_km = 20\nl_step_km = 5\ngrid_points = 30\nfig1_points = 20\n"
               "verify_alphas = 0.5\nverify_nus = 0.3\nverify_etas = 0.5\nalpha2 = 0.1\nnu = 0.2\n")
_FLAGS = {
    "rate": {"--family": _SMALL["family"], "--alpha2": _SMALL["alpha2"], "--nu": _SMALL["nu"],
             "--l": _SMALL["distance_km"]},
    "figure1": {"--l": _SMALL["distance_km"]},
    "figure2": {"--l-max": _SMALL["l_max_km"], "--l-step": _SMALL["l_step_km"]},
    "verify": {"--fock-n-max": _SMALL["oracle_fock_n_max"],
               "--quad-nodes": _SMALL["oracle_quad_nodes"]},
}


def _text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    keys = draw(st.lists(st.sampled_from(sorted(_SMALL)), max_size=4, unique=True))
    entries = {key: _text(draw(st.one_of(_SMALL[key], _BAD))) for key in keys}
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS[command])), max_size=2, unique=True)):
        flags += [flag, _text(draw(st.one_of(_FLAGS[command][flag], _BAD)))]
    if draw(st.booleans()):
        flags += ["--f-policy", draw(_SMALL["f_policy"])]
    return command, entries, flags


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(cli_runs())
    def test_every_run_ends_in_a_documented_exit(self, run):
        command, entries, flags = run
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.cfg"
            lines = "".join(f"{key} = {value}\n" for key, value in entries.items())
            config.write_text(_SMALL_BASE + lines, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([command, "--config", str(config), "--out", tmp, *flags])
                except SystemExit as exit_:  # argparse rejects a malformed flag value
                    code = exit_.code
            assert code in {0, 1, 2, 3}
            assert "Traceback" not in err.getvalue()
            assert "Warning" not in err.getvalue()
            if code == 0:
                written = [path.read_text(encoding="utf-8") for path in Path(tmp).glob("*.csv")]
                for text in [out.getvalue(), *written]:
                    for line in text.splitlines():
                        for cell in line.split(",") if "," in line else ():
                            try:
                                value = float(cell)
                            except ValueError:
                                continue
                            assert math.isfinite(value), line
