"""verify's bulk paths: batched quadrature, Fock sums from cached squares, the node cap.

The batched routes must give, bit for bit, the values of the per-point code
they replace; that code is kept here as the reference.
"""

import math
import os
import random
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
    QUADRATURE,
    cli,
    fock_oracle,
    make_state,
    p0_via_fock,
    p0_via_quadrature,
    verify_closed_forms,
)
from mcs_qkd.cli import main

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


def _seeded_grid(seed=2024):
    """8 x 6 x 6 points with distinct, non-zero alphas and nus, as the benchmark draws them."""
    rng = random.Random(seed)
    alphas = sorted(rng.uniform(0.05, 2.0) for _ in range(8))
    nus = sorted(rng.uniform(0.05, 0.8) for _ in range(6))
    etas = sorted(rng.uniform(0.05, 0.95) for _ in range(6))
    return list(product(alphas, nus, etas))


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


class TestPrecedence:
    def test_node_count_at_an_interior_point_beats_a_later_bad_alpha(self):
        with pytest.raises(DomainError, match="nodes"):
            verify_closed_forms([(0.5, 0.3, 0.5), (-1.0, 0.3, 0.5)], quad_nodes=8)

    def test_bad_alpha_before_the_first_interior_point_beats_the_node_count(self):
        with pytest.raises(DomainError, match="alpha"):
            verify_closed_forms([(0.5, 0.3, 0.0), (-1.0, 0.3, 0.5)], quad_nodes=8)

    def test_fock_order_at_the_same_point_beats_the_node_count(self):
        with pytest.raises(DomainError, match="n_max"):
            verify_closed_forms([(0.5, 0.3, 0.5)], fock_n_max=4, quad_nodes=8)

    def test_endpoint_efficiencies_ignore_the_node_count(self):
        reports = verify_closed_forms([(0.5, 0.3, 0.0), (1.0, 0.3, 1.0)], quad_nodes=8)
        assert reports and all(r.method != QUADRATURE for r in reports)

    def test_cli_reports_the_node_count_before_a_later_bad_alpha(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("verify_alphas = 0.5, -1\n", encoding="utf-8")
        assert main(["verify", "--config", str(config), "--quad-nodes", "8",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: need 32 <= nodes <= {CAP}, got 8\n"

    def test_cli_with_endpoint_efficiencies_ignores_the_node_count(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("verify_etas = 0, 1\n", encoding="utf-8")
        assert main(["verify", "--config", str(config), "--quad-nodes", "8",
                     "--out", str(tmp_path)]) == 0
        assert "# quad_nodes = 8\n" in (tmp_path / "verify.csv").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("grid, states", [(DEFAULT_GRID, 12), (_seeded_grid(), 48)],
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


def test_verify_csv_writes_each_report_as_a_per_row_pass_would(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("verify_alphas = 0.5, 1\nverify_nus = -0.0, 0\nverify_etas = 0, -0.0, 0.5\n",
                      encoding="utf-8")
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
    reports = verify_closed_forms(product((0.5, 1.0), (-0.0, 0.0), (0.0, -0.0, 0.5)))
    rows = [(r.formula, r.alpha, r.nu, r.eta, r.method, r.resolution, r.closed_form_value,
             r.oracle_value, r.abs_diff, "true" if r.within_tolerance else "false")
            for r in reports]
    written = (tmp_path / "verify.csv").read_text(encoding="utf-8").splitlines()
    expected = cli._csv_text([], cli.VERIFY_HEADER, rows).splitlines()
    assert written[3:] == expected
    assert any(",-0," in line for line in expected) and any(",0,0," in line for line in expected)
