"""verify's bulk paths: batched quadrature, Fock sums from cached squares, the node cap.

The batched routes must give, bit for bit, the values of the per-point code
they replace; that code is kept here as the reference.
"""

import math
import os
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcs_qkd
from mcs_qkd import (
    DEFAULT_GRID,
    DomainError,
    Protocol,
    QUADRATURE,
    cli,
    fock_oracle,
    make_state,
    mcs_state,
    p0_via_fock,
    p0_via_quadrature,
    verify_closed_forms,
)
from mcs_qkd.cli import main
from mcs_qkd.fock_oracle import (
    DEFAULT_ALPHAS, DEFAULT_ETAS, DEFAULT_FOCK_N_MAX, DEFAULT_NUS, DEFAULT_QUAD_NODES,
)
from reference import reference_csv, seeded_axes, seeded_grid

CAP = fock_oracle._MAX_QUAD_NODES


def _per_point_quadrature(state, eta, nodes):
    """The quadrature at one efficiency, as it was written before efficiencies were batched."""
    alpha, nu, mu = state.alpha, state.nu, state.mu
    t, w = fock_oracle._hermgauss(nodes)
    a_u = 1.0 / (1.0 - eta) + nu / mu
    a_v = 1.0 / (1.0 - eta) - nu / mu
    u = t / math.sqrt(a_u)
    constant = nu * alpha * alpha / mu - alpha * alpha - math.log(mu * math.pi * (1.0 - eta))
    in_u = (2.0 * alpha - nu * u) * u / mu - u * u / (1.0 - eta) + t * t + constant
    return min(1.0, float(w @ np.exp(in_u)) * math.sqrt(math.pi / (a_u * a_v)))


def _generator_sum(amplitudes, eta):
    """The Fock sum as it was written before squares and powers were cached."""
    loss = 1.0 - eta
    return min(1.0, math.fsum(c * c * loss**n for n, c in enumerate(amplitudes)))


_INTERIOR = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestBatchedQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 1.0), st.lists(_INTERIOR, min_size=1, max_size=8),
           st.integers(32, CAP))
    @example(0.0, 0.0, [0.5, 0.5], 32)
    @example(2.0, 0.8, [5e-324, 0.05, 0.9999999999999999], CAP)
    # efficiencies where numpy's log of the normalisation differs from math.log's last bit
    @example(2.0, 0.3, [0.43285747533377283, 0.5, 0.5827561452545251], 32)
    @example(0.5, 0.0, [0.25975156662637877], 32)
    def test_matches_single_calls_and_the_per_point_reference(self, alpha, nu, etas, nodes):
        state = make_state(alpha, nu)
        batched = p0_via_quadrature(state, etas, nodes)
        singles = [p0_via_quadrature(state, eta, nodes) for eta in etas]
        reference = [_per_point_quadrature(state, eta, nodes) for eta in etas]
        assert isinstance(batched, list) and all(isinstance(v, float) for v in batched)
        assert batched == singles == reference
        assert list(map(repr, batched)) == list(map(repr, reference))

    def test_one_efficiency_returns_a_float(self):
        state = make_state(0.5, 0.3)
        value = p0_via_quadrature(state, 0.5)
        assert type(value) is float
        assert p0_via_quadrature(state, [0.5]) == [value]
        assert p0_via_quadrature(state, np.float64(0.5)) == value

    def test_rejects_the_first_endpoint_in_a_batch(self):
        with pytest.raises(DomainError, match=r"got 1\.0;"):
            p0_via_quadrature(make_state(0.5, 0.1), [0.5, 1.0, 0.0])

    def test_efficiency_is_checked_before_the_node_count(self):
        with pytest.raises(DomainError, match="eta strictly inside"):
            p0_via_quadrature(make_state(0.5, 0.1), [0.5, 0.0], nodes=8)


class TestFockSumHelper:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 0.8), st.floats(0.0, 1.0), st.integers(0, 40))
    @example(0.0, 0.0, 1.0, 0)
    @example(2.0, 0.8, -0.0, 5)
    def test_matches_the_generator(self, alpha, nu, eta, extra_powers):
        state = make_state(alpha, nu)
        amplitudes = fock_oracle._truncated_distribution(state, 128).amplitudes
        squares = [c * c for c in amplitudes]
        reference = _generator_sum(amplitudes, eta)
        # verify shares one power list per loss, which may be longer than this expansion
        loss = 1.0 - eta
        powers = {loss: [loss**n for n in range(len(squares) + extra_powers)]}
        assert repr(fock_oracle._no_click_sum(squares, eta, powers)) == repr(reference)
        grown = {}
        assert repr(fock_oracle._no_click_sum(squares[:3], eta, grown)) == repr(
            _generator_sum(amplitudes[:3], eta))
        assert repr(fock_oracle._no_click_sum(squares, eta, grown)) == repr(reference)
        assert len(grown[loss]) == len(squares)
        assert repr(p0_via_fock(state, eta)) == repr(reference)


def test_multi_photon_oracle_sums_the_cached_squares():
    # the SARG04 tuned state at this nu has a vacuum amplitude whose c**2 (libm's pow)
    # is one ulp below c * c with glibc 2.36 on x86-64; the p_multi_min oracle sums the same
    # c * c squares as the no-click sums and the per-point reference
    nu = 0.3181293623861858
    amplitudes = fock_oracle._truncated_distribution(mcs_state(nu, Protocol.SARG04),
                                                      DEFAULT_FOCK_N_MAX).amplitudes[:3]
    report = next(r for r in verify_closed_forms([(0.0, nu, 0.0)])
                  if r.formula == "p_multi_min[sarg04]")
    assert repr(report.oracle_value) == repr(1.0 - math.fsum(c * c for c in amplitudes))


class TestPrecedence:
    def test_node_count_at_an_interior_point_beats_a_later_bad_alpha(self):
        with pytest.raises(DomainError, match="nodes"):
            verify_closed_forms([(0.5, 0.3, 0.5), (-1.0, 0.3, 0.5)], quad_nodes=8)

    def test_node_count_beats_a_bad_alpha_before_the_first_interior_point(self):
        with pytest.raises(DomainError, match="nodes"):
            verify_closed_forms([(0.5, 0.3, 0.0), (-1.0, 0.3, 0.5)], quad_nodes=8)

    def test_node_count_beats_a_bad_fock_order_at_the_same_point(self):
        with pytest.raises(DomainError, match="nodes"):
            verify_closed_forms([(0.5, 0.3, 0.5)], fock_n_max=4, quad_nodes=8)

    def test_endpoint_efficiencies_check_the_node_count(self):
        with pytest.raises(DomainError, match="nodes"):
            verify_closed_forms([(0.5, 0.3, 0.0), (1.0, 0.3, 1.0)], quad_nodes=8)

    def test_cli_reports_the_node_count_before_a_later_bad_alpha(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("verify_alphas = 0.5, -1\n", encoding="utf-8")
        assert main(["verify", "--config", str(config), "--quad-nodes", "8",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: need 32 <= nodes <= {CAP}, got 8\n"

    def test_cli_with_endpoint_efficiencies_checks_the_node_count(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("verify_etas = 0, 1\n", encoding="utf-8")
        assert main(["verify", "--config", str(config), "--quad-nodes", "8",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: need 32 <= nodes <= {CAP}, got 8\n"
        assert not (tmp_path / "verify.csv").exists()


#: Verify settings -> the one error message they raise; the library gets the product of the axes.
_REJECTED = {
    "bad alpha before the first interior point, 8 nodes": (
        {"verify_alphas": "0.5, -1", "verify_etas": "0, 0.5", "oracle_quad_nodes": "8"},
        f"need 32 <= nodes <= {CAP}, got 8"),
    "bad fock order at the same point, 8 nodes": (
        {"verify_alphas": "0.5", "verify_nus": "0.3", "verify_etas": "0.5",
         "oracle_fock_n_max": "4", "oracle_quad_nodes": "8"},
        f"need 32 <= nodes <= {CAP}, got 8"),
    "endpoint efficiencies, 8 nodes": (
        {"verify_etas": "0, 1", "oracle_quad_nodes": "8"}, f"need 32 <= nodes <= {CAP}, got 8"),
    "bad first alpha": ({"verify_alphas": "-1, 0.5"}, "alpha must be finite and >= 0, got -1.0"),
    "fock order below its bound": ({"oracle_fock_n_max": "4"}, "need 8 <= n_max <= 100000, got 4"),
    "negative efficiency": ({"verify_etas": "-0.5"}, "eta must lie in [0, 1], got -0.5"),
    "alpha whose square overflows": (
        {"verify_alphas": "1e200", "verify_nus": "0.3", "verify_etas": "0.5"},
        "the photon-number expansion at alpha=1e+200, nu=0.3 is not finite"),
    # the vacuum amplitude's exponent, at most 0, rounds past exp's range
    "vacuum exponent past exp's range": (
        {"verify_alphas": "6.269678730061013e38", "verify_nus": "2.989843962493586e38",
         "verify_etas": "0.5"},
        "the photon-number expansion at alpha=6.269678730061013e+38, "
        "nu=2.989843962493586e+38 is not finite"),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_library_and_cli_report_the_same_error(case, tmp_path, capsys):
    entries, message = _REJECTED[case]
    config = tmp_path / "c.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()),
                      encoding="utf-8")
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "verify.csv").exists()

    def axis(key, default):
        return [float(v) for v in entries[key].split(",")] if key in entries else default

    grid = product(axis("verify_alphas", DEFAULT_ALPHAS), axis("verify_nus", DEFAULT_NUS),
                   axis("verify_etas", DEFAULT_ETAS))
    with pytest.raises(DomainError) as err:
        verify_closed_forms(
            grid, fock_n_max=int(entries.get("oracle_fock_n_max", DEFAULT_FOCK_N_MAX)),
            quad_nodes=int(entries.get("oracle_quad_nodes", DEFAULT_QUAD_NODES)))
    assert str(err.value) == message


class TestOverflowingAlpha:
    """alpha**2 overflows: the amplitudes are NaN, and no truncation order resolves them."""

    def test_the_quadrature_gives_nan(self):
        assert math.isnan(p0_via_quadrature(make_state(1e200, 0.3), 0.5))

    def test_the_fock_sum_raises_a_domain_error(self):
        with pytest.raises(DomainError, match=r"alpha=1e\+200, nu=0\.3 is not finite"):
            p0_via_fock(make_state(1e200, 0.3), 0.5)

    def test_the_tail_bound_stays_nan(self):
        with pytest.raises(mcs_qkd.TruncationError) as err:
            mcs_qkd.fock_coefficients(make_state(1e200, 0.3), n_cap=16)
        assert math.isnan(err.value.partial_mass) and math.isnan(err.value.partial.tail_bound)

    def test_the_no_click_sum_keeps_nan(self):
        assert math.isnan(fock_oracle._no_click_sum([math.nan, 0.5], 0.5, {}))


@pytest.fixture
def quadrature_calls(monkeypatch):
    """The state of every ``p0_via_quadrature`` call that verify makes."""
    calls = []
    quadrature = fock_oracle.p0_via_quadrature

    def counted(state, *args, **kwargs):
        calls.append(state)
        return quadrature(state, *args, **kwargs)

    monkeypatch.setattr(fock_oracle, "p0_via_quadrature", counted)
    return calls


@pytest.mark.parametrize("grid, states", [(DEFAULT_GRID, 12), (seeded_grid(), 48)],
                         ids=["default", "oracle"])
def test_one_quadrature_call_per_distinct_state(grid, states, quadrature_calls):
    reports = verify_closed_forms(grid)
    assert len(quadrature_calls) == len(set(quadrature_calls)) == states
    assert sum(r.method == QUADRATURE for r in reports) == len(grid)


def test_repeated_alphas_share_one_quadrature_call(quadrature_calls):
    grid = list(product([0.5, 0.5, 1.0], [0.3], [0.0, 0.25, 0.5]))
    reports = verify_closed_forms(grid)
    assert len(quadrature_calls) == 2
    quadrature = [r for r in reports if r.method == QUADRATURE]
    assert [(r.alpha, r.eta) for r in quadrature] == [
        (alpha, eta) for alpha, _, eta in grid if eta > 0.0
    ]
    assert quadrature[0].oracle_value == quadrature[2].oracle_value


class TestNodeCap:
    def test_weights_at_the_cap_are_finite_and_sum_to_sqrt_pi(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, w = np.polynomial.hermite.hermgauss(CAP)
        assert np.all(np.isfinite(t)) and np.all(np.isfinite(w))
        assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_verify_at_the_cap_passes(self, tmp_path, capsys):
        assert main(["verify", "--quad-nodes", str(CAP), "--out", str(tmp_path)]) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_one_above_the_cap_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mcs_qkd", "verify", "--quad-nodes", str(CAP + 1),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(mcs_qkd.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"config error: need 32 <= nodes <= {CAP}, got {CAP + 1}\n"


#: Each grid's axes and the cells its rows must reach.
_CSV_GRIDS = {
    "signed-zeros": (((0.5, 1.0), (-0.0, 0.0), (0.0, -0.0, 0.5)), (",-0,", ",0,0,")),
    "seeded": (seeded_axes(), ()),
    # 0.5 as alpha, nu and eta of one row, and an abs_diff that is exactly 0
    "shared-values": (((0.5,), (0.5,), (0.0, 0.5, 1.0)), (",0.5,0.5,0.5,", ",0,true")),
}


@pytest.mark.parametrize("axes, cells", _CSV_GRIDS.values(), ids=_CSV_GRIDS)
def test_verify_csv_writes_each_report_as_a_per_row_pass_would(tmp_path, capsys, axes, cells):
    config = tmp_path / "c.cfg"
    config.write_text("".join(f"{key} = {', '.join(map(repr, values))}\n" for key, values in
                              zip(("verify_alphas", "verify_nus", "verify_etas"), axes)),
                      encoding="utf-8")
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
    reports = verify_closed_forms(product(*axes))
    rows = [(r.formula, r.alpha, r.nu, r.eta, r.method, r.resolution, r.closed_form_value,
             r.oracle_value, r.abs_diff, r.within_tolerance) for r in reports]
    written = (tmp_path / "verify.csv").read_text(encoding="utf-8").splitlines()
    expected = reference_csv([], cli.VERIFY_HEADER, rows).splitlines()
    assert written[3:] == expected
    for text in cells:
        assert any(text in line for line in expected), text
