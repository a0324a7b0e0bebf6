import math
from pathlib import Path

import pytest

from mcs_qkd import DegenerateInputError
from mcs_qkd import cli
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

    def test_corrupted_closed_form_exits_1(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--inject-offset", "1e-5", "--out", str(out)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out
