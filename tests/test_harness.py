import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _oracles import parse_csv

from fracstep import cli, harness, meshfem as mf, reference as ref, schemes
from fracstep.harness import REFERENCES, ConfigError, StudyConfig, emit, run_study


class TestRates:
    def test_stepwise_rates_exact_halving(self):
        rates = harness._stepwise_rates([4e-3, 2e-3, 1e-3], "temporal", [10.0, 20.0, 40.0])
        assert rates[0] is None
        assert rates[1] == pytest.approx(1.0, abs=1e-12)
        assert rates[2] == pytest.approx(1.0, abs=1e-12)

    def test_decay_decade_rates(self):
        rates = harness._stepwise_rates([1e-2, 1e-3], "decay", [1e-3, 1e-4])
        assert rates[1] == pytest.approx(1.0, abs=1e-12)

    def test_summary_mean_of_last_two(self):
        assert harness._summary([None, 1.0, 2.0, 3.0]) == pytest.approx(2.5)


class TestConfig:
    def test_valid(self):
        cfg = StudyConfig("a", (0.5,), ("be",), "temporal")
        assert cfg.reference == "discrete_modal"

    def test_spatial_forces_continuous(self):
        with pytest.raises(ConfigError):
            StudyConfig("e", (1.5,), ("sbd",), "spatial", reference="discrete_modal")

    def test_decay_rejects_continuous(self):
        with pytest.raises(ConfigError):
            StudyConfig("a", (0.5,), ("be",), "decay", reference="continuous_modal")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            StudyConfig("a", (0.5,), ("dpg",), "temporal")

    # a repeated entry would divide a stepwise rate by log(1)
    def test_repeated_n_list_entry(self):
        with pytest.raises(ConfigError, match="N_list repeats an entry"):
            StudyConfig("a", (0.5,), ("be",), "temporal", N_list=(10, 20, 10))

    def test_repeated_m_list_entry(self):
        with pytest.raises(ConfigError, match="M_list repeats an entry"):
            StudyConfig("e", (1.5,), ("sbd",), "spatial", M_list=(8, 8))

    def test_repeated_t_list_entry(self):
        with pytest.raises(ConfigError, match="t_list repeats an entry"):
            StudyConfig("a", (0.5,), ("be",), "decay", t_list=(1e-3, 0.001))

    def test_from_json(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                {
                    "case": "a",
                    "alphas": [0.5],
                    "schemes": ["be"],
                    "kind": "temporal",
                    "N_list": [10, 20],
                }
            )
        )
        cfg = StudyConfig.from_json(str(path))
        assert cfg.N_list == (10, 20)

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            StudyConfig.from_json(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "content", [None, '{"case": ', b"\xff\xfe{}"], ids=["directory", "malformed", "not-utf8"]
    )
    def test_from_json_unreadable_file(self, tmp_path, content):
        # None: the path is a directory; else malformed JSON or bytes
        path = tmp_path / "study.json"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ConfigError, match="cannot read config"):
            StudyConfig.from_json(str(path))

    @pytest.mark.parametrize(
        "content", ["5", "null", '["case", "alphas", "schemes", "kind"]'], ids=["number", "null", "list"]
    )
    def test_from_json_rejects_non_object(self, tmp_path, content):
        path = tmp_path / "study.json"
        path.write_text(content)
        with pytest.raises(ConfigError, match="not a JSON object"):
            StudyConfig.from_json(str(path))

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("alphas", 0.5, "'alphas' must be of type array"),
            ("M", "16", "'M' must be of type integer"),
            ("schemes", "be", "'schemes' must be of type array"),
            ("N_list", [], "'N_list' must not be an empty list"),
            ("alphas", [], "'alphas' must not be an empty list"),
            ("schemes", [], "'schemes' must not be an empty list"),
            ("M", True, "'M' must be of type integer"),
            ("alphas", [True], "'alphas' must be of type number"),
            ("t", False, "'t' must be of type number"),
            ("t_list", [1e-3, "1e-4"], "'t_list' must be of type number"),
            ("corrected", 1, "'corrected' must be of type boolean"),
            # the reference at a time t <= 0 would raise lam t^alpha to a complex power
            ("t", -0.1, "times must be finite and positive"),
            ("t", 0, "times must be finite and positive"),
            ("t", float("nan"), "times must be finite and positive"),
            ("t_list", [0.1, -0.1], "times must be finite and positive"),
            ("t_list", [1e-3, float("inf")], "times must be finite and positive"),
        ],
    )
    def test_from_json_enforces_schema_types(self, tmp_path, key, value, message):
        path = tmp_path / "study.json"
        raw = {"case": "a", "alphas": [0.5], "schemes": ["be"], "kind": "temporal"}
        path.write_text(json.dumps(dict(raw, **{key: value})))
        with pytest.raises(ConfigError, match=message):
            StudyConfig.from_json(str(path))

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "a", "alphas": [0.5], "schemes": ["be"], "kind": "temporal", "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            StudyConfig.from_json(str(path))


@pytest.fixture(scope="module")
def small_temporal_report():
    cfg = StudyConfig(
        "a", (0.5,), ("be", "sbd"), "temporal", M=8, N_list=(10, 20, 40, 80), t=0.1
    )
    return run_study(cfg)


class TestRunStudy:
    def test_loads_integrated_once_per_system_and_function(self, monkeypatch):
        # ladders like the paper's tables: every solve of a case needs the
        # same few loads, and each is integrated once per nodal system
        pairs, quadratures = [], []
        real_load, real_quad = mf.load_vector, mf.FemSystem.quad_points

        def load(sys, g):
            pairs.append((sys.fem, g))
            return real_load(sys, g)

        def quad(self, order=4):
            quadratures.append(order)
            return real_quad(self, order)

        monkeypatch.setattr(mf, "load_vector", load)
        monkeypatch.setattr(mf.FemSystem, "quad_points", quad)
        # fresh systems, whose caches start empty
        fresh = {}

        def fem_system(M):
            if M not in fresh:
                fresh[M] = mf.assemble(mf.build_mesh(M))
            return fresh[M]

        monkeypatch.setattr(mf, "fem_system", fem_system)
        for case, alpha, names in [("c", 0.5, ("be", "sbd", "l1")), ("d", 1.5, ("be", "sbd"))]:
            run_study(StudyConfig(case, (alpha,), names, "temporal", M=16, N_list=(10, 20, 40)))
        run_study(StudyConfig("b", (0.5,), ("be",), "decay", M=8, N=10, reference="self_convergence"))
        distinct = set(pairs)
        assert len(pairs) > 3 * len(distinct)
        assert len(quadratures) == len(distinct)
        assert sum(len(mf._nodal_load.entries(f)) for f in fresh.values()) == len(distinct)
        for fem, g in distinct:
            assert isinstance(fem, mf.FemSystem)
            cached = mf._nodal_load(fem, g)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_temporal_rates(self, small_temporal_report):
        by_scheme = {blk.scheme: blk for blk in small_temporal_report.blocks}
        assert by_scheme["be"].summary_rate == pytest.approx(1.0, abs=0.1)
        assert by_scheme["sbd"].summary_rate == pytest.approx(2.0, abs=0.15)
        assert by_scheme["be"].theoretical_rate == 1.0
        assert by_scheme["sbd"].theoretical_rate == 2.0

    def test_normalization_flag(self, small_temporal_report):
        assert small_temporal_report.normalized is True

    def test_raw_error_for_zero_data(self):
        cfg = StudyConfig("c", (0.5,), ("be",), "temporal", M=4, N_list=(8, 16), t=0.1)
        report = run_study(cfg)
        assert report.normalized is False

    def test_decay_study(self):
        # late decades: the exponent needs lam * t^alpha << 1 over the data's
        # dominant modes before the asymptotic decay shows
        cfg = StudyConfig(
            "a", (0.5,), ("be",), "decay", M=8, N=10, t_list=(1e-5, 1e-6, 1e-7)
        )
        report = run_study(cfg)
        blk = report.blocks[0]
        assert blk.summary_rate == pytest.approx(0.5, abs=0.05)
        assert blk.theoretical_rate == pytest.approx(0.5)

    def test_determinism(self, small_temporal_report):
        cfg = StudyConfig(
            "a", (0.5,), ("be", "sbd"), "temporal", M=8, N_list=(10, 20, 40, 80), t=0.1
        )
        again = run_study(cfg)
        a = emit(small_temporal_report, "csv")
        b = emit(again, "csv")
        assert a == b

    def test_spatial_reference_built_once_per_alpha(self, monkeypatch):
        def cfg(schemes):
            return StudyConfig(
                "e", (1.5,), schemes, "spatial", M_list=(4, 8), N=10, t=0.1, K_max=31
            )

        assert _reference_builds(monkeypatch, "exact_solution", cfg) == 1

    @pytest.mark.parametrize("kind", ["temporal", "decay"])
    def test_discrete_reference_built_once_per_t(self, kind, monkeypatch):
        def cfg(schemes):
            if kind == "temporal":
                return StudyConfig("b", (0.5,), schemes, kind, M=8, N_list=(10, 20), t=0.1)
            return StudyConfig("b", (0.5,), schemes, kind, M=8, N=10, t_list=(1e-3, 1e-4, 1e-5))

        expected = 1 if kind == "temporal" else 3
        assert _reference_builds(monkeypatch, "discrete_reference", cfg) == expected


class TestModalStepping:
    def test_decay_rates_below_the_cg_floor(self):
        # with CG at rel_tol=1e-12 SBD read 0.92 and 0.52 here, BE 1.50 and 1.46
        cfg = StudyConfig("d", (1.5,), ("sbd", "be"), "decay", M=16, N=10)
        for blk in run_study(cfg).blocks:
            rates = dict(zip(blk.labels, blk.rates))
            for label in ("t=1e-06", "t=1e-07"):
                assert rates[label] == pytest.approx(1.5, abs=0.05), (blk.scheme, label)

    @pytest.mark.parametrize("cid,value,rel", [
        ("d", 1.0875702755e-14, 1e-2),
        ("e", 1.7717497676e-13, 1e-5),
    ])
    def test_sbd_decay_floor(self, cid, value, rel):
        # the same modal march carried out in np.longdouble; marching U^n at
        # the scale of v read 8.8e-15 .. 1.21e-14 and 1.768e-13 .. 1.770e-13
        # here, as the BLAS thread count changed the eigensolve's rounding
        cfg = StudyConfig(cid, (1.5,), ("sbd",), "decay", M=16, N=10, t_list=(1e-8,))
        (blk,) = run_study(cfg).blocks
        assert blk.err_l2[0] == pytest.approx(value, rel=rel, abs=0.0)

    def test_stepping_system(self):
        base = mf.fem_system(8)
        cfg = StudyConfig("b", (0.5,), ("be",), "temporal", M=8)
        view = harness._stepping_system(cfg, base)
        assert isinstance(view, mf.ModalSystem) and view.fem is base
        assert view is base.modal
        assert view.lam is ref._eigensystem(base)[0]
        self_conv = StudyConfig("b", (0.5,), ("be",), "decay", M=8, reference="self_convergence")
        assert harness._stepping_system(self_conv, base) is base
        # no size cut below the reference's own guard: 441 unknowns step in
        # the view as well
        big = mf.fem_system(22)
        assert harness._stepping_system(cfg, big).fem is big

    @pytest.mark.parametrize(
        "reference,backend", [("discrete_modal", "modal"), ("self_convergence", "cg")]
    )
    def test_study_backend(self, reference, backend, monkeypatch):
        seen = []
        real = harness._run_scheme

        def spy(*args, **kwargs):
            hist = real(*args, **kwargs)
            seen.append(hist.backend)
            return hist

        monkeypatch.setattr(harness, "_run_scheme", spy)
        cfg = StudyConfig("b", (0.5,), ("be",), "temporal", M=8, N_list=(10, 20),
                          reference=reference)
        run_study(cfg)
        assert seen and set(seen) == {backend}

    def test_call_order_does_not_matter(self, monkeypatch):
        run_study(StudyConfig("b", (0.5,), ("be",), "temporal", M=8, N_list=(10, 20)))
        base = mf.fem_system(8)
        assert isinstance(base, mf.FemSystem) and base.fem is base
        seen = []
        real = mf.cg_solve

        def spy(*args, stats=None, **kwargs):
            stats = {} if stats is None else stats
            out = real(*args, stats=stats, **kwargs)
            seen.append(stats["iterations"])
            return out

        monkeypatch.setattr(mf, "cg_solve", spy)
        case = ref.get_case("b", 0.5)
        mf.l2_project(base, case.v)
        assert len(seen) == 1 and seen[0] > 0
        hist = schemes.solve(base, case, schemes.SchemeConfig("BE"), schemes.TimeGrid(0.1, 10))
        assert hist.backend == "cg"
        assert all(its > 0 for _, its, _ in hist.solve_stats)


def _reference_builds(monkeypatch, builder, cfg):
    """Calls of ``reference.<builder>`` in a be+sbd study built by cfg(schemes),
    after checking its CSV equals the two single-scheme CSVs joined."""
    rows = [emit(run_study(cfg((s,))), "csv").split("\n", 1) for s in ("be", "sbd")]
    separate = rows[0][0] + "\n" + rows[0][1] + rows[1][1]
    calls = []
    real = getattr(ref, builder)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ref, builder, counted)
    assert emit(run_study(cfg(("be", "sbd"))), "csv") == separate
    return len(calls)


class TestEmit:
    def test_csv_header_only_for_empty(self):
        report = harness.ConvergenceReport("temporal", "a", "discrete_modal", True, [])
        assert emit(report, "csv") == "label,error_l2,error_h1,rate\n"

    def test_csv_round_trip_bit_exact(self, small_temporal_report):
        text = emit(small_temporal_report, "csv")
        rows = parse_csv(text)
        k = 0
        for blk in small_temporal_report.blocks:
            for e2, e1, r in zip(blk.err_l2, blk.err_h1, blk.rates):
                lab, g2, g1, gr = rows[k]
                assert g2 == e2
                assert g1 == e1
                assert gr == r or (gr is None and r is None)
                k += 1

    def test_parse_csv_rejects_bad_header(self):
        with pytest.raises(ValueError, match="not a study CSV"):
            parse_csv("label,error,rate\nbe;alpha=0.5;N=10,0.1,\n")

    def test_markdown_contains_theory_brackets(self, small_temporal_report):
        text = emit(small_temporal_report, "markdown")
        assert "(1.00)" in text
        assert "(2.00)" in text

    def test_emit_to_file(self, small_temporal_report, tmp_path):
        # the one file-writing path: `fracstep study --out` writes emit's text
        path = tmp_path / "report.csv"
        args = ["study", "--case", "a", "--alpha", "0.5", "--kind", "temporal",
                "--M", "8", "--N-list", "10,20,40,80", "--t", "0.1", "--out", str(path)]
        assert cli.main(args) == 0
        assert path.read_text() == emit(small_temporal_report, "csv")


class TestReferenceConsistency:
    def test_continuous_vs_discrete_gate(self):
        # one-off: both references agree to the spatial error scale
        case = ref.get_case("a", 0.5)
        sys16 = mf.assemble(mf.build_mesh(16))
        t = 0.1
        disc = ref.discrete_reference(sys16, case, t)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 255), t)
        l2, _ = mf.error_norms(sys16, disc, sol)
        h = 1.0 / 16.0
        # grace factor over c h^2 ||v||, with t^{-alpha} smoothing factor ~ 3
        assert l2 <= 5.0 * h ** 2 * case.v_l2_norm


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fracstep.cli", *args],
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_mesh_info(self):
        out = self.run_cli("mesh-info", "--M", "4")
        assert out.returncode == 0
        assert "interior dofs = 9" in out.stdout

    def test_mesh_info_bad_m(self):
        out = self.run_cli("mesh-info", "--M", "3")
        assert out.returncode == 2

    def test_weights_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        out = self.run_cli(
            "weights", "--rule", "be", "--alpha", "0.5", "--tau", "1.0",
            "--N", "3", "--out", str(path),
        )
        assert out.returncode == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "j,weight"
        assert float(lines[1].split(",")[1]) == 1.0
        assert float(lines[2].split(",")[1]) == -0.5

    def test_weights_rejects_nan_alpha(self):
        out = self.run_cli("weights", "--rule", "be", "--alpha", "nan", "--N", "3")
        assert out.returncode == 2
        assert "config error" in out.stderr and out.stdout == ""

    def test_successive_mains_share_no_arguments(self, capsys):
        # one parser per process, a fresh namespace per call
        assert cli.main(["weights", "--rule", "be", "--alpha", "0.5", "--N", "2"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3
        assert cli.main(["weights", "--rule", "sbd", "--alpha", "0.5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 33
        assert cli.build_parser() is cli.build_parser()

    def test_mlf_table(self):
        out = self.run_cli("mlf", "--alpha", "1.0", "--beta", "1.0", "--x-min", "1.0", "--x-max", "1.0", "--points", "1")
        assert out.returncode == 0
        val = float(out.stdout.strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_solve_json_metrics(self):
        # a primary and a baseline scheme, each against both time references
        for scheme, reference in [
            ("be", "discrete_modal"),
            ("l1", "discrete_modal"),
            ("be", "self_convergence"),
            ("l1", "self_convergence"),
        ]:
            out = self.run_cli(
                "solve", "--case", "a", "--alpha", "0.5", "--scheme", scheme,
                "--M", "4", "--N", "16", "--t", "0.1", "--reference", reference,
            )
            assert out.returncode == 0, out.stderr
            metrics = json.loads(out.stdout)
            assert metrics["scheme"] == scheme
            assert metrics["reference"] == reference
            assert metrics["error_l2"] > 0.0
            assert metrics["normalized"] is True
            # against the discrete-modal reference the cell steps in the
            # modal view, as a study does, with no CG iteration
            if reference == "discrete_modal":
                assert metrics["backend"] == "modal"
                assert metrics["cg_iterations_max"] == 0
            else:
                assert metrics["backend"] == "cg"
                assert 0 < metrics["cg_iterations_mean"] <= metrics["cg_iterations_max"]
        # the sine-transform preconditioner keeps every step solve short
        out = self.run_cli(
            "solve", "--case", "b", "--alpha", "0.5", "--scheme", "sbd",
            "--M", "16", "--N", "40", "--t", "0.1", "--reference", "self_convergence",
        )
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout)
        assert 0 < metrics["cg_iterations_mean"] <= metrics["cg_iterations_max"] <= 20

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_solve_steps_as_the_study_does(self, reference, tmp_path):
        # one path per cell: the solve and the matching study step on the same
        # system against the same reference, so they report the same error to
        # the last bit
        if reference == "discrete_modal":
            cid, alpha, scheme, M, N, t = "d", 1.5, "sbd", 16, 10, 1e-8
            study = StudyConfig(cid, (alpha,), (scheme,), "decay", M=M, N=N)
        else:
            # against itself the solve is a one-cell study, whose finer run
            # also takes 4 N steps; against the series any ladder with N does
            cid, alpha, scheme, M, N, t = "b", 0.5, "be", 8, 20, 0.1
            n_list = (N,) if reference == "self_convergence" else (10, N, 40)
            study = StudyConfig(cid, (alpha,), (scheme,), "temporal", M=M, N_list=n_list, t=t,
                                reference=reference)
        out, dump = tmp_path / "m.json", tmp_path / "u.txt"
        args = ["solve", "--case", cid, "--alpha", str(alpha), "--scheme", scheme, "--M", str(M),
                "--N", str(N), "--t", str(t), "--reference", reference]
        assert cli.main(args + ["--out", str(out), "--dump-solution", str(dump)]) == 0
        metrics = json.loads(out.read_text())
        assert metrics["backend"] == ("modal" if reference == "discrete_modal" else "cg")
        blk = run_study(study).blocks[0]
        k = blk.labels.index(f"t={t:g}" if study.kind == "decay" else f"N={N}")
        assert metrics["error_l2_normalized"] == blk.err_l2[k]
        case = ref.get_case(cid, alpha)
        if reference == "continuous_modal":
            # the study measures against the series too, not against a finer run
            assert metrics["error_h1"] / case.v_l2_norm == blk.err_h1[k]
            self_conv = run_study(replace(study, reference="self_convergence")).blocks[0]
            assert self_conv.err_l2[k] != blk.err_l2[k]
        else:
            assert blk.err_h1[k] is None
        # the dump holds interior nodal coefficients, as a CG solve gives them
        cfg = schemes.SchemeConfig(
            scheme.upper(), "subdiffusion" if case.is_subdiffusion else "diffusion_wave"
        )
        nodal = schemes.solve(mf.fem_system(M), case, cfg, schemes.TimeGrid(t, N)).final
        dumped = np.loadtxt(dump)
        assert np.linalg.norm(dumped - nodal) <= 1e-10 * np.linalg.norm(nodal)

    def test_study_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "study.json"
        bad.write_text(json.dumps({"case": "a", "alphas": 0.5, "schemes": ["be"], "kind": "temporal"}))
        for path in (str(tmp_path / "does-not-exist.json"), str(bad)):
            out = self.run_cli("study", "--config", path)
            assert out.returncode == 2, out.stderr
            assert out.stderr.startswith("config error:")

    def test_study_flags_only(self, tmp_path):
        path = tmp_path / "r.csv"
        out = self.run_cli(
            "study", "--case", "a", "--alpha", "0.5", "--scheme", "be",
            "--kind", "temporal", "--M", "4", "--N-list", "8,16,32",
            "--out", str(path),
        )
        assert out.returncode == 0, out.stderr
        rows = parse_csv(path.read_text())
        assert len(rows) == 3

    def test_study_config_file_with_override(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "case": "a",
                    "alphas": [0.5],
                    "schemes": ["be"],
                    "kind": "temporal",
                    "M": 4,
                    "N_list": [8, 16],
                }
            )
        )
        out_path = tmp_path / "r.md"
        out = self.run_cli(
            "study", "--config", str(cfg_path), "--format", "markdown",
            "--out", str(out_path),
        )
        assert out.returncode == 0, out.stderr
        assert "temporal study" in out_path.read_text()

    def test_study_format_from_config(self, tmp_path):
        # the flag overrides the file only when given
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({
            "case": "a", "alphas": [0.5], "schemes": ["be"], "kind": "temporal",
            "M": 4, "N_list": [8, 16], "format": "markdown",
        }))
        out = self.run_cli("study", "--config", str(cfg_path))
        assert out.returncode == 0, out.stderr
        assert "temporal study" in out.stdout
        out = self.run_cli("study", "--config", str(cfg_path), "--format", "csv")
        assert out.stdout.startswith("label,error_l2")

    def test_study_schema_printing(self):
        out = self.run_cli("study", "--print-schema")
        assert out.returncode == 0
        schema = json.loads(out.stdout)
        assert "case" in schema["properties"]

    def test_config_error_exit_code(self):
        out = self.run_cli(
            "study", "--case", "e", "--alpha", "1.5", "--scheme", "sbd",
            "--kind", "spatial", "--reference", "discrete_modal",
        )
        assert out.returncode == 2

    @pytest.mark.parametrize("args", [
        ("--kind", "temporal", "--N-list", "10,10"),
        ("--kind", "decay", "--t-list", "1e-3,1e-3"),
    ])
    def test_study_repeated_ladder_entry_exit_code(self, args):
        out = self.run_cli(
            "study", "--case", "a", "--alpha", "0.5", "--M", "4", "--scheme", "be", *args
        )
        assert out.returncode == 2, out.stderr
        assert "repeats an entry" in out.stderr

    @pytest.mark.parametrize("command", [
        ("weights", "--rule", "be", "--alpha", "0.5"),
        ("mlf", "--alpha", "0.5"),
        ("solve", "--case", "a", "--alpha", "0.5", "--M", "4", "--N", "4"),
    ])
    def test_format_only_for_study(self, command):
        out = self.run_cli(*command, "--format", "markdown")
        assert out.returncode == 2
        assert "unrecognized arguments: --format markdown" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("args", [
        ("solve", "--N", "10", "--t", "-0.1"),
        ("study", "--kind", "decay", "--N", "10", "--t-list", "0.1,-0.1"),
    ])
    def test_nonpositive_time_exit_code(self, args, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*args, "--case", "a", "--alpha", "0.5", "--M", "8"]) == 2
        assert "times must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("weights", "--rule", "be", "--alpha", "0.5", "--N", "3", "--out"),
        ("study", "--kind", "temporal", "--case", "b", "--alpha", "0.5", "--M", "4",
         "--N-list", "4,8", "--reference", "continuous_modal", "--out"),
        ("solve", "--case", "a", "--alpha", "0.5", "--M", "4", "--N", "4", "--dump-solution"),
    ])
    def test_unwritable_output_exit_code(self, args, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert cli.main([*args, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and str(path) in err
        assert err.count("\n") == 1 and not path.parent.exists()

    def test_mlf_negative_argument_exit_code(self):
        out = self.run_cli("mlf", "--alpha", "0.5", "--x-min", "-1")
        assert out.returncode == 2

    def test_mlf_nan_argument_exit_code(self):
        for alpha in ("1.0", "1.5"):
            out = self.run_cli("mlf", "--alpha", alpha, "--x-min", "nan", "--x-max", "1", "--points", "2")
            assert out.returncode == 2, out.stdout
            assert "NaN" in out.stderr
            assert out.stdout == ""

    def test_study_missing_case_exit_code(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"alphas": [0.5], "schemes": ["be"], "kind": "temporal"}))
        for args in (("--config", str(cfg_path)), ("--kind", "temporal")):
            out = self.run_cli("study", *args)
            assert out.returncode == 2, out.stderr
            assert "missing config keys: ['case']" in out.stderr

    def test_case_alpha_mismatch_exit_code(self):
        out = self.run_cli("solve", "--case", "a", "--alpha", "1.5", "--N", "4", "--M", "4")
        assert out.returncode == 2

    def test_numerical_failure_exit_code(self, monkeypatch):
        # exit code 3 is reserved for solver breakdowns
        from fracstep import cli
        from fracstep.numkit import CgError

        def boom(args):
            raise CgError("stalled", 1.0, 7)

        parser = cli.build_parser()
        args = parser.parse_args(["mesh-info", "--M", "4"])
        monkeypatch.setattr(args, "func", boom)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        assert cli.main([]) == 3
