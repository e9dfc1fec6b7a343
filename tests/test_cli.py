import json
import math
import warnings
from pathlib import Path

import pytest

import freudquad.cli as cli
from freudquad import (
    SpaceWeight, WCETable, build_basis, gauss_rule, mehler, mrs_number, perturb_nodes, run_figure,
    slope_fit, support_check, tensor_wce, wce_me2, wce_series, weight_value,
)
from freudquad.cli import main

# stdout of ``freudq wce`` and ``freudq figure`` tables (CSV and JSON, kernel
# and series route, unsorted and repeated n); any change to these bytes is
# a change in the reported results
GOLDEN_WCE = json.loads(
    (Path(__file__).parent / "data" / "cli_wce_n3_9.json").read_text()
)
# stdout of ``freudq perturb`` reports (CSV and JSON, alpha = 2 and 4)
GOLDEN_PERTURB = json.loads(
    (Path(__file__).parent / "data" / "cli_perturb_n20.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNodes:
    def test_two_point_rule(self, capsys):
        code, out, _ = run_cli(capsys, "nodes", "--alpha", "2", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,node,omega,tau"
        nodes = [float(line.split(",")[1]) for line in lines[1:]]
        a1 = math.sqrt(1.0 / (4.0 * math.pi))
        assert nodes == pytest.approx([-a1, a1], rel=1e-12)

    def test_csv_round_trip_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "nodes", "--alpha", "2", "--n", "7")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        from freudquad import build_basis, gauss_rule

        rule = gauss_rule(build_basis(2.0, 8), 7)
        for row, node, omega, tau in zip(rows, rule.nodes, rule.omega, rule.tau):
            assert float(row[1]) == node
            assert float(row[2]) == omega
            assert float(row[3]) == tau

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "nodes", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 3
        assert payload["alpha"] == 2.0


class TestCoeffs:
    def test_alpha2_values(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "2", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,a_k"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [math.sqrt(k / (4 * math.pi)) for k in (1, 2, 3)]
        assert vals == pytest.approx(expected, rel=1e-14)

    def test_json_contains_c0(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["c0"] == pytest.approx(2.0 ** 0.25, rel=1e-14)

    def test_alpha_1_5_builds(self, capsys):
        # |x|^1.5 has a kink at 0: converges only on the graded grid
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "1.5", "--n", "20")
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert vals == build_basis(1.5, 20).coeffs.tolist()


class TestFigure:
    def test_writes_csv_and_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "fig1a", "--n-range", "3:21:2", "--out", str(tmp_path)
        )
        assert code == 0
        csv_text = (tmp_path / "fig1a.csv").read_text()
        assert csv_text.startswith("n,wce,log10_wce\n")
        payload = json.loads((tmp_path / "fig1a.json").read_text())
        assert set(payload) == {
            "space", "params", "axis", "rows", "slope", "intercept",
            "theory_slope", "seed", "tool_version",
        }
        assert payload["axis"] == "n"
        assert payload["slope"] < -0.2

    def test_full_fig1a_slope(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "fig1a", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "fig1a.json").read_text())
        assert payload["slope"] == pytest.approx(-0.35, abs=0.05)

    def test_log_n_row_at_zero_is_left_out_of_the_fit(self, capsys):
        # log10(0) = -inf must stay out of the fit: a NaN slope is no valid JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "figure", "fig3b", "--n-range", "0:2", "--format", "json"
            )
        assert code == 0

        def reject(name):
            raise ValueError(f"invalid JSON constant {name}")

        payload = json.loads(out, parse_constant=reject)
        assert [row[0] for row in payload["rows"]] == [0, 1, 2]
        fitted = WCETable.from_rows({}, [1, 2], [v for _, v in payload["rows"][1:]],
                                    axis="log-n")
        assert payload["slope"] == fitted.slope
        assert err == f"slope = {fitted.slope:.6f}\n"


class TestWce:
    def test_mse2_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "wce", "--space", "mse2", "--s", str(math.pi / 5), "--n-range",
            "3:9:2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["space"] == "mse2"
        values = [row[1] for row in payload["rows"]]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_one_row_table_has_no_slope(self, capsys, tmp_path):
        argv = ("wce", "--space", "hs", "--s", "3", "--n-range", "5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header and the n = 5 row
        assert err == "slope = n/a\n"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["slope"] is None and payload["intercept"] is None
        assert [n for n, _ in payload["rows"]] == [5]
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        assert "slope=n/a" in out

    def test_hs_gets_default_depth(self, capsys):
        code, out, _ = run_cli(
            capsys, "wce", "--space", "hs", "--s", "3", "--n-range", "3,5",
            "--format", "json", "--k-max", "2000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["k_max"] == 2000

    def test_t_flag_parameterizes_mse2(self, capsys):
        code, out, _ = run_cli(
            capsys, "wce", "--space", "mse2", "--t", "1.25", "--n-range", "3,5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["t"] == pytest.approx(1.25)
        assert payload["params"]["s"] == pytest.approx(math.pi / 5)

    def test_t_is_used_as_given(self, capsys):
        # pi / (pi - pi (1 - 1/3)) is 3.000000000000001, not 3
        code, out, _ = run_cli(
            capsys, "wce", "--space", "mse2", "--t", "3", "--n-range", "3:5:2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["t"] == 3.0
        basis = build_basis(2.0, 6)
        for n, value in payload["rows"]:
            rule = gauss_rule(basis, n)
            assert value == wce_me2(rule.nodes, rule.omega, 3.0)

    def test_t_reaches_the_tensor_lift(self, capsys):
        # lambda_0 = e^(log t) at t = 3.0 itself
        code, out, _ = run_cli(
            capsys, "wce", "--space", "mse2", "--t", "3", "--dim", "2",
            "--n-range", "3:5:2", "--format", "json",
        )
        assert code == 0
        basis = build_basis(2.0, 6)
        for n, value in json.loads(out)["rows"]:
            rule = gauss_rule(basis, n)
            one_dim = wce_me2(rule.nodes, rule.omega, 3.0)
            lam0 = math.exp(math.log(3.0))
            assert value == tensor_wce(one_dim, 1.0 / basis.c0, lam0, 2)

    def test_t_reaches_the_series_route(self, capsys):
        # alpha = 4 sums the series at lambda_k = 3^(k+1), not at the
        # round-tripped t = 3.000000000000001
        code, out, _ = run_cli(
            capsys, "wce", "--alpha", "4", "--space", "mse2", "--t", "3",
            "--k-max", "20", "--n-range", "3:5:2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["t"] == 3.0
        basis = build_basis(4.0, 20)
        space = SpaceWeight.geometric(3.0)
        for n, value in payload["rows"]:
            rule = gauss_rule(basis, n)
            assert value == wce_series(rule.nodes, rule.omega, basis, space, 2 * n, k_max=20)
        # the geometric space fits against n on both routes
        assert payload["axis"] == "n"
        ns, values = zip(*payload["rows"])
        assert payload["slope"] == slope_fit(ns, [math.log10(v) for v in values])[0]

    def test_tensor_dimension(self, capsys):
        base = run_cli(
            capsys, "wce", "--space", "mse2", "--t", "1.25", "--n-range", "3,5",
            "--format", "json",
        )[1]
        lifted = run_cli(
            capsys, "wce", "--space", "mse2", "--t", "1.25", "--n-range", "3,5",
            "--dim", "2", "--format", "json",
        )[1]
        from freudquad import tensor_wce

        v1 = json.loads(base)["rows"][0][1]
        v2 = json.loads(lifted)["rows"][0][1]
        assert v2 == pytest.approx(tensor_wce(v1, 2.0 ** -0.25, 1.25, 2), rel=1e-12)

    @pytest.mark.parametrize("command", sorted(GOLDEN_WCE))
    def test_golden_csv_bytes(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert out == GOLDEN_WCE[command]

    @pytest.mark.parametrize(
        "command, fid",
        [
            ("wce --space mse2 --t 1.25", "fig1a"),
            ("wce --space mse --s 1", "fig2a"),
        ],
    )
    def test_same_rows_as_figure(self, capsys, command, fid):
        code, out, _ = run_cli(capsys, *command.split(), "--n-range", "3:9:2")
        assert code == 0
        assert out == run_figure(fid, n_values=(3, 5, 7, 9)).to_csv()

    def test_alpha_1_8_table(self, capsys):
        code, out, _ = run_cli(capsys, "wce", "--alpha", "1.8", "--space", "epq",
                               "--p", "1", "--q", "1", "--n-range", "3:9:2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [3, 5, 7, 9]
        assert all(0 < float(r[1]) < 1e-3 for r in rows)

    def test_alpha_1_2_table(self, capsys):
        # the truncation needs no basis, so only the table's 59-mode basis is
        # built; a 512-mode basis does not converge at alpha = 1.2
        code, out, _ = run_cli(capsys, "wce", "--alpha", "1.2", "--space", "epq",
                               "--p", "1", "--q", "1", "--n-range", "3:9:2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [3, 5, 7, 9]
        deep = build_basis(1.2, 120)
        space = SpaceWeight.exponential(1.0, 1.0)
        for n, value in ((int(r[0]), float(r[1])) for r in rows):
            rule = gauss_rule(deep, n)
            ref = wce_series(rule.nodes, rule.omega, deep, space, 2 * n, k_max=110)
            assert math.isfinite(value) and value > 0
            assert value == pytest.approx(ref, rel=1e-10)

    def test_table_builds_one_basis(self, capsys, monkeypatch):
        import freudquad.experiments as exp

        calls = []

        def recorded(alpha, n_max):
            calls.append((alpha, n_max))
            return build_basis(alpha, n_max)

        monkeypatch.setattr(exp, "build_basis", recorded)
        code, _, _ = run_cli(capsys, "wce", "--alpha", "4", "--space", "epq",
                             "--p", "1", "--q", "1", "--n-range", "3:41:2")
        assert code == 0
        assert calls == [(4.0, 123)]

    def test_underflowing_tail_target_is_numerical_failure(self, capsys):
        # lambda_84 = exp(0.1 * 84^2) ~ e^705.6, so 1e-20 times the first
        # retained envelope term is below the smallest double
        code, out, err = run_cli(capsys, "wce", "--space", "epq", "--p", "2", "--q",
                                 "0.1", "--n-range", "42", "--trunc-tol", "1e-20")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: tol = 1.0e-20 times the first")
        assert "underflows to 0" in err

    def test_unbounded_tail_names_the_given_tol(self, capsys):
        # the bound is formed on tol times the first envelope term (3.9e-17);
        # the message states the --trunc-tol and first mode it was given
        code, out, err = run_cli(capsys, "wce", "--space", "epq", "--p", "0.05",
                                 "--q", "0.5", "--n-range", "3:5:2")
        assert code == 2
        assert out == ""
        assert err.startswith(
            "numerical failure: the series tail from k = 10 cannot be bounded "
            "below tol = 1.0e-16"
        )
        assert "3.9e-17" not in err

    def test_tiny_p_tail_is_numerical_failure(self, capsys):
        # the tail bound was NaN here, read as "below tol": rows "3,0,nan" and
        # "5,0,nan" with exit 0; its index is past the hard cap
        code, out, err = run_cli(capsys, "wce", "--space", "epq", "--p", "0.004",
                                 "--q", "300", "--n-range", "3:5:2")
        assert code == 2
        assert out == ""
        assert err.startswith(
            "numerical failure: the series tail from k = 10 cannot be bounded "
            "below tol = 1.0e-16"
        )

    def test_k_max_on_the_kernel_route_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "wce", "--space", "mse2", "--t", "1.25",
                                 "--k-max", "20")
        assert code == 1
        assert out == ""
        assert err == (
            "error: --k-max does not apply to the closed-form kernel route\n"
        )

    @pytest.mark.parametrize("argv", [
        ("wce", "--space", "mse2", "--t", "1.25", "--n-range", "3:7:2",
         "--trunc-tol", "1e-3"),
        ("wce", "--space", "mse2", "--t", "1.25", "--trunc-tol", "1e-16"),
        ("figure", "fig1a", "--trunc-tol", "1e-3"),
        ("figure", "fig1b", "--trunc-tol=1e-16"),
    ])
    def test_trunc_tol_on_the_kernel_route_is_rejected(self, capsys, argv):
        # the kernel route sums no series; a tolerance it would ignore is an
        # error, even one equal to the default
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: --trunc-tol does not apply to the closed-form kernel route\n"
        )

    def test_first_failed_row_is_raised(self, capsys):
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "3",
                                 "--n-range", "0:3")
        assert code == 1
        assert out == ""
        assert err == "error: node count must be >= 1, got n=0\n"

    @pytest.mark.parametrize("tol", ["1", "1e10", "inf"])
    def test_trunc_tol_of_one_or_more_is_rejected(self, capsys, tol):
        # the truncation index would fall below every row's first mode, so
        # each row would print as an exact rule (0, nan)
        code, out, err = run_cli(capsys, "wce", "--space", "mse", "--n-range", "3:7:2",
                                 "--trunc-tol", tol)
        assert code == 1
        assert out == ""
        assert err == "error: tol must be below 1\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gauss_rule's NaN weights
    def test_row_with_non_finite_weights_is_numerical_failure(self, capsys):
        # the 801-node rule at alpha = 2 has NaN weights; the row printed
        # "801,nan,nan" with exit 0
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "3",
                                 "--n-range", "3,801", "--k-max", "3000")
        assert code == 2
        assert out == ""
        assert err == (
            "numerical failure: the 801-node Gauss rule has non-finite nodes or "
            "weights on a basis of capacity 3000\n"
        )

    def test_overflowing_weight_is_numerical_failure(self, capsys):
        # exp(k) overflows at the top row's first mode k = 2n = 1402
        code, _, err = run_cli(capsys, "wce", "--space", "epq", "--p", "1", "--q",
                               "1", "--n-range", "700:701")
        assert code == 2
        assert err.startswith("numerical failure: lambda_start (k = 1402)")

    @pytest.mark.parametrize(
        "k_max, n_range, n",
        [("3", "3:21:2", 3), ("12", "3:9:2", 7), ("12", "9,3", 9)],
    )
    def test_k_max_below_first_mode_is_rejected(self, capsys, k_max, n_range, n):
        # a row with k_max < 2n would sum no mode and read as an exact rule;
        # the first such row in the given order is named
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "3",
                                 "--n-range", n_range, "--k-max", k_max)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: --k-max {k_max} is below the first summed mode "
            f"2n = {2 * n} of row n = {n}\n"
        )

    def test_dimension_that_overflows_exits_one(self, capsys):
        # at s = 1/2 the n = 3 row has w = 1.79, so (c^2/lambda_0 + w)^4000
        # is beyond float64: a traceback before
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "0.5",
                                 "--dim", "4000", "--n-range", "3:5:2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: the d=4000 squared worst-case error overflows")
        assert err.count("\n") == 1

    def test_dimension_where_the_base_power_underflows(self, capsys):
        # at s = 1, w = 0.175 < c^2/lambda_0 = 2^-1/2: base^4000 underflows and
        # the expm1 factor overflows, yet (base + w)^4000 - base^4000 is
        # 3.15e-218 at n = 3 (an overflow error before)
        import mpmath as mp

        one_dim = json.loads(run_cli(
            capsys, "wce", "--space", "hs", "--s", "1", "--n-range", "3",
            "--format", "json",
        )[1])["rows"]
        code, out, _ = run_cli(capsys, "wce", "--space", "hs", "--s", "1",
                               "--dim", "4000", "--n-range", "3", "--format", "json")
        assert code == 0
        base = (1.0 / build_basis(2.0, 6).c0) ** 2
        [(n, w)], [(n_d, value)] = one_dim, json.loads(out)["rows"]
        assert n == n_d == 3
        with mp.workdps(50):
            ref = float((mp.mpf(base) + mp.mpf(w)) ** 4000 - mp.mpf(base) ** 4000)
        assert value == pytest.approx(ref, rel=4 * 2.0**-52, abs=0)
        # n = 5's value is 5.6e-354, below the float range: it read 0, as an
        # exact rule, and dropped out of the fit
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "1",
                                 "--dim", "4000", "--n-range", "3:5:2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: the d=4000 squared worst-case error underflows")
        assert err.count("\n") == 1


class TestPerturb:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "perturb", "--n", "10", "--eps", "0.01",
            "--sign-mode", "positive", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_omega_positive"] is True
        assert payload["support_ok"] is True
        assert 0.9 < payload["a_n"] <= payload["b_n"] < 1.1

    @pytest.mark.parametrize("command", sorted(GOLDEN_PERTURB))
    def test_golden_report_bytes(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert out == GOLDEN_PERTURB[command]

    def test_gap_violation_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "perturb", "--n", "20", "--eps", "0.5", "--sign-mode", "random"
        )
        assert code == 2
        assert "gap" in err.lower() or "reorder" in err.lower()


class TestCheck:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_series_route_drift_fails(self, capsys, monkeypatch):
        real = cli.wce_series
        monkeypatch.setattr(
            cli, "wce_series", lambda *a, **k: real(*a, **k) * (1.0 + 1e-8)
        )
        code, out, _ = run_cli(capsys, "check")
        assert code == 2
        assert out.count("PASS") == 2
        assert "FAIL  kernel-vs-series" in out


class TestValidation:
    def test_bad_alpha_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "nodes", "--alpha", "0.5", "--n", "3")
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("command", [
        "wce --space hs --s nan",
        "wce --space hs --s inf",
        "wce --space mse2 --s nan",
        "wce --space mse --s nan",
        "wce --space epq --p 1 --q nan",
        "wce --space mse2 --t inf",
        "coeffs --alpha nan --n 5",
        "coeffs --alpha inf --n 5",
        "nodes --alpha inf --n 3",
        "perturb --n 20 --eps nan",
        "perturb --n 20 --eps 0.01 --L nan",
        "perturb --n 20 --eps 0.01 --L inf",
    ])
    def test_non_finite_parameter_exits_one(self, capsys, command):
        # these printed NaN rows or support_ok,False with exit 0, or failed
        # with exit 2 after a Stieltjes build or a perturbation
        code, out, err = run_cli(capsys, *command.split())
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("call", [
        lambda: SpaceWeight.polynomial(math.nan),
        lambda: SpaceWeight.mod_exp2(math.inf),
        lambda: SpaceWeight.exponential(math.inf, 1.0),
        lambda: SpaceWeight.geometric(math.inf),
        lambda: build_basis(math.nan, 5),
        lambda: weight_value(math.inf, 0.0),
        lambda: mrs_number(math.nan, 5),
        lambda: perturb_nodes(gauss_rule(build_basis(2.0, 6), 5), math.nan),
        lambda: support_check([0.0], 2.0, 5, L=math.nan),
        lambda: wce_me2([0.0], [1.0], math.nan),
        lambda: mehler(math.nan, 0.0, 0.0),
        lambda: mehler(math.inf, 0.0, 0.0),
    ])
    def test_non_finite_parameter_raises(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    @pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
    def test_bad_figure_eps_exits_one(self, capsys, eps):
        # each row's ValueError went into params["failures"]: a header-only
        # table with exit 0
        code, out, err = run_cli(capsys, "figure", "fig3a", "--eps", eps)
        assert code == 1
        assert out == ""
        assert err == f"error: eps must be finite and >= 0, got {float(eps)}\n"

    def test_unknown_figure_id_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9x"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_dim_exits_one(self, capsys, dim):
        code, out, err = run_cli(capsys, "wce", "--space", "hs", "--s", "3",
                                 "--n-range", "3:5:2", "--dim", dim)
        assert code == 1
        assert out == ""
        assert err == f"error: dimension must be >= 1, got d={dim}\n"

    @pytest.mark.parametrize(
        "command",
        [
            "figure fig2a --n-range 3:5:2 --alpha 4",
            "check --out ignored.json",
            "wce --space hs --s 3 --n-range 3:5:2 --t 1.25",
            "wce --space ms --s 2 --n-range 3:5:2 --p 1 --q 1",
            "wce --space epq --p 1 --q 1 --s 7",
            "wce --space mse2 --t 1.25 --s 9",
            "wce --space mse --t 1.25",
            "wce --space epq --p 1",
            "wce --space mse2 --t 1",
        ],
    )
    def test_ignored_option_is_rejected(self, capsys, tmp_path, monkeypatch, command):
        # each option used to be accepted and left the output unchanged
        monkeypatch.chdir(tmp_path)
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: " in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["wce --space hs --s 3", "figure fig2a", "wce --space mse2 --t 1.25"]
    )
    def test_empty_n_range_exits_one(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split(), "--n-range", "")
        assert code == 1
        assert out == ""
        assert err == "error: bad n-range ''\n"
