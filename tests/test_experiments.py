import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from freudquad import FIGURE_IDS, FigureSpec, SpaceWeight, figure_spec, run_figure
from freudquad.cli import build_parser, main

# to_csv() of every figure at n = 3, 5, 7, recorded with rows run one after
# another; any change to these bytes is a change in the reported results
GOLDEN_CSV = json.loads(
    (Path(__file__).parent / "data" / "figures_n3_5_7.json").read_text()
)
# to_csv() of every figure at its default n-range (run_figure(fid))
GOLDEN_DEFAULT_CSV = json.loads(
    (Path(__file__).parent / "data" / "figures_default.json").read_text()
)


class TestFigureSpec:
    def test_ids(self):
        for fid in FIGURE_IDS:
            spec = figure_spec(fid)
            assert spec.id == fid

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            figure_spec("fig9z")

    @pytest.mark.parametrize("fid", ["fig1a", "fig2a", "fig3b"])
    def test_empty_n_values_is_rejected(self, fid):
        # failed inside the planner with "max() arg is an empty sequence"
        with pytest.raises(ValueError, match="n_values must hold at least one n"):
            run_figure(fid, n_values=())

    def test_alpha_of_zero_is_rejected(self):
        # the planner's truncation divided by alpha first: a ZeroDivisionError
        with pytest.raises(ValueError, match="weight exponent must be finite and > 1"):
            run_figure("fig2a", alpha=0.0)

    def test_overrides_take_effect(self):
        spec = figure_spec("fig3a", eps=0.2, seed=13)
        assert spec.eps == 0.2
        assert spec.seed == 13

    def test_defaults(self):
        assert figure_spec("fig1a").t == 1.25
        assert figure_spec("fig1b").t == pytest.approx(50.0 / 49.0)
        assert figure_spec("fig2a").space().s == 1.0
        assert figure_spec("fig2b").space().s == 0.5
        assert figure_spec("fig3b").space().axis == "log-n"
        assert figure_spec("fig3c").space().s == pytest.approx(2.0 / 3.0)

    def test_route_and_axis_follow_the_space(self):
        spec = figure_spec("fig1a")
        assert spec.space() == SpaceWeight.geometric(1.25)
        assert spec.kernel_route and spec.space().axis == "n"
        at_alpha4 = figure_spec("fig1a", alpha=4.0)
        assert not at_alpha4.kernel_route and at_alpha4.space().axis == "n"
        assert not figure_spec("fig2a").kernel_route
        assert figure_spec("fig2a").space().axis == "sqrt-n"


# what perfbench/replay.py reads of a spec; ``space()`` is called
_REPLAY_SURFACE = (
    "id", "n_values", "seed", "t", "space", "eps", "sign_mode", "trunc_tol", "k_max",
)


class TestReplaySurface:
    """The benchmark's traced replay (``perfbench/run.py --trace 1``) reads
    specs directly; a refactor of FigureSpec must keep what it reads."""

    def test_replay_reads_only_the_pinned_surface(self):
        source = (Path(__file__).parents[1] / "perfbench" / "replay.py").read_text()
        assert set(re.findall(r"\bspec\.(\w+)", source)) <= set(_REPLAY_SURFACE)

    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_every_figure_has_the_surface(self, fid):
        spec = figure_spec(fid, seed=11)
        assert spec.id == fid
        assert spec.seed == 11
        assert spec.n_values and all(isinstance(n, int) for n in spec.n_values)
        space = spec.space()
        assert isinstance(space, SpaceWeight)
        # fig1a/fig1b replay wce_me2 at spec.t, the others the series in space()
        if fid in ("fig1a", "fig1b"):
            assert spec.t == space._t and spec.t > 1.0
        else:
            assert spec.t is None
        assert (spec.eps is not None) == fid.startswith("fig3")
        assert spec.sign_mode == "positive"
        assert spec.trunc_tol == 1e-16
        assert spec.k_max == (40_000 if fid in ("fig3b", "fig3c") else None)

    def test_every_wce_command_parses_to_a_float_trunc_tol(self):
        # the replay passes the parsed --trunc-tol to series_truncation, so a
        # None default would break the cli-tables replay alone
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        loader = importlib.util.spec_from_file_location("_workloads", path)
        workloads = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(workloads)
        commands = [
            op for ops in workloads.WORKLOADS.values() for kind, op in ops
            if kind == "cli" and op.split()[0] == "wce"
        ]
        assert commands
        for command in commands:
            args = build_parser().parse_args(workloads.cli_argv(command, 7))
            assert type(args.trunc_tol) is float, command


class TestRunFigure:
    def test_deterministic_bit_identical_csv(self):
        spec = figure_spec("fig3a", n_values=(3, 5, 7, 9))
        t1 = run_figure(spec)
        t2 = run_figure(spec)
        assert t1.to_csv() == t2.to_csv()
        assert t1.slope == t2.slope

    def test_metadata_recorded(self):
        table = run_figure("fig3b", n_values=(3, 5, 7))
        assert table.params["figure"] == "fig3b"
        assert table.params["eps"] == 0.1
        assert table.params["sign_mode"] == "positive"
        assert table.params["k_max"] == 40_000
        assert "systems" in table.params
        assert table.theory_slope == pytest.approx(-1.0)

    def test_points_below_anchored_theory_line(self):
        for fid in ("fig1a", "fig1b"):
            table = run_figure(fid, n_values=tuple(range(3, 22, 2)))
            xs = np.array(table.ns, dtype=float)
            ys = np.log10(np.array(table.wce))
            line = ys[0] + table.theory_slope * (xs - xs[0])
            assert np.max(ys - line) <= 1e-09

    def test_fig2_points_below_anchored_theory_line(self):
        table = run_figure("fig2a", n_values=tuple(range(3, 14, 2)))
        xs = np.sqrt(np.array(table.ns, dtype=float))
        ys = np.log10(np.array(table.wce))
        line = ys[0] + table.theory_slope * (xs - xs[0])
        assert np.max(ys - line) <= 1e-09

    def test_one_row_keeps_its_value_without_a_fit(self):
        table = run_figure("fig2a", n_values=(5,))
        assert table.ns == (5,)
        assert table.slope is None and table.intercept is None
        assert table.wce == run_figure("fig2a", n_values=(5, 7)).wce[:1]

    def test_failed_rows_are_marked_not_dropped(self, monkeypatch):
        import freudquad.experiments as exp

        real = exp._rule_row

        def flaky(spec, basis, n, shape):
            if n == 13:
                raise RuntimeError("synthetic row failure")
            return real(spec, basis, n, shape)

        monkeypatch.setattr(exp, "_rule_row", flaky)
        table = run_figure("fig3b", n_values=(3, 13, 17), k_max=2_000)
        assert table.params["failures"] == {"13": "RuntimeError: synthetic row failure"}
        assert table.ns == (3, 17)

    def test_series_route_does_not_measure_the_envelope_constant(
        self, monkeypatch, basis2_deep
    ):
        import freudquad
        import freudquad.experiments as exp
        import freudquad.kernels as kernels
        import freudquad.mzframe as mzframe
        import freudquad.wce as wce
        from freudquad import build_system, gauss_rule, phi_lambda

        def unmeasured(basis):
            raise AssertionError("sup_envelope_constant called on the series route")

        for module in (freudquad, kernels, wce, exp, mzframe):
            monkeypatch.setattr(
                module, "sup_envelope_constant", unmeasured, raising=False
            )
        for fid in ("fig2a", "fig3a"):
            assert not run_figure(fid, n_values=(3, 5)).params.get("failures")
        quartic = FigureSpec(id="wce", n_values=(3, 5), alpha=4.0,
                             space_weight=SpaceWeight.exponential(1.0, 1.0))
        assert not run_figure(quartic).params.get("failures")
        rule = gauss_rule(basis2_deep, 21)
        system = build_system(basis2_deep, 20, rule.nodes, rule.tau)
        assert phi_lambda(basis2_deep, SpaceWeight.mod_exp(1.0), system) > 0

    def test_over_capacity_row_fails_alone(self, monkeypatch):
        import freudquad.experiments as exp

        # the capacity is sized as the top row's truncation index plus 4
        real = exp._plan

        def short(spec):
            shapes, capacity = real(spec)
            return shapes, capacity - 5

        monkeypatch.setattr(exp, "_plan", short)
        table = run_figure("fig2a", n_values=(3, 5, 7))
        assert table.ns == (3, 5)
        assert table.params["failures"]["7"].startswith(
            "CapacityError: series truncation needs index"
        )
        monkeypatch.undo()
        assert table.wce == run_figure("fig2a", n_values=(3, 5)).wce

    def test_negative_shifted_row_fails_alone_naming_n(self):
        table = run_figure("fig3a", n_values=(-1, 3))
        assert table.ns == (3,)
        assert table.params["failures"] == {
            "-1": "ValueError: system order must be >= 0, got n=-1"
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gauss_rule's NaN weights
    @pytest.mark.parametrize("fid, n", [("fig3a", 800), ("fig1a", 801)])
    def test_row_with_non_finite_weights_fails_alone(self, fid, n):
        # the alpha = 2 Gauss rule of 801 nodes has NaN weights: the shifted
        # row recorded a bare scipy ValueError, the kernel row a NaN value
        depth = {} if figure_spec(fid).kernel_route else {"k_max": 3_000}
        table = run_figure(fid, n_values=(3, n), **depth)
        assert table.ns == (3,)
        assert table.wce == run_figure(fid, n_values=(3,), **depth).wce
        assert table.params["failures"] == {
            str(n): "CapacityError: the 801-node Gauss rule has non-finite nodes or "
            f"weights on a basis of capacity {3_000 if depth else 802}"
        }

    @pytest.mark.parametrize(
        "fid, n_values, k_max, message",
        [
            ("fig2a", (3, 5, 7, 9), 16, "2n = 18 of row n = 9"),
            ("fig3a", (3, 9, 5, 11), 8, "n+1 = 10 of row n = 9"),
            # a repeated, out-of-order n is planned once and still named first
            ("fig2a", (3, 9, 9, 5), 16, "2n = 18 of row n = 9"),
        ],
    )
    def test_depth_below_first_mode_is_rejected(self, fid, n_values, k_max, message):
        # such a row would sum no mode and be written as an exact rule
        with pytest.raises(ValueError, match=re.escape(f"first summed mode {message}")):
            run_figure(fid, n_values=n_values, k_max=k_max)

    @pytest.mark.parametrize("fid", ["fig1a", "fig1b"])
    def test_depth_on_the_kernel_route_is_rejected(self, fid):
        # the closed-form kernel sums no series, so a depth would be
        # recorded in the params and have no effect
        with pytest.raises(ValueError, match="does not apply to the closed-form"):
            run_figure(fid, n_values=(3, 5), k_max=20)
        at_alpha4 = run_figure(fid, n_values=(3, 5), k_max=400, alpha=4.0)
        assert at_alpha4.params["k_max"] == 400

    def test_exp_weight_records_p_and_q(self):
        params = [
            run_figure(FigureSpec(id="x", n_values=(3, 5), space_weight=w)).params
            for w in (SpaceWeight.exponential(1.0, 1.0), SpaceWeight.exponential(0.5, 2.0))
        ]
        assert [(d["space"], d["p"], d["q"]) for d in params] == [
            ("epq", 1.0, 1.0), ("epq", 0.5, 2.0)
        ]
        assert "s" not in params[0] and "t" not in params[0]

    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_space_is_labelled_by_its_cli_name(self, fid):
        # a fixed depth applies to the series route only
        depth = {} if figure_spec(fid).kernel_route else {"k_max": 400}
        table = run_figure(fid, n_values=(3, 5), **depth)
        named = SpaceWeight.named(table.params["space"])
        assert named.kind == figure_spec(fid).space().kind

    def test_exp_weight_has_no_theory_slope(self, capsys):
        table = run_figure(FigureSpec(
            id="x", n_values=(3, 5), space_weight=SpaceWeight.exponential(1.0, 1.0)
        ))
        assert table.theory_slope is None
        assert table.summary()["theory_slope"] is None
        assert main("wce --space epq --p 1 --q 1 --n-range 3:5:2".split()) == 0
        assert capsys.readouterr().out == table.to_csv()

    def test_theory_slopes(self):
        assert run_figure("fig1a", n_values=(3, 5, 7)).theory_slope == pytest.approx(
            -2.0 * math.log10(1.25)
        )
        t2b = run_figure("fig2b", n_values=(3, 5, 7))
        assert t2b.theory_slope == pytest.approx(
            -math.sqrt(2.0) * 0.5 / math.sqrt(math.pi) * math.log10(math.e)
        )


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_golden_csv_bytes(fid):
    assert run_figure(fid, n_values=(3, 5, 7)).to_csv() == GOLDEN_CSV[fid]


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_golden_default_csv_bytes(fid):
    assert run_figure(fid).to_csv() == GOLDEN_DEFAULT_CSV[fid]
