"""Command-line harness: exit codes, report shape, determinism, artifacts."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkbound as wb
from walkbound.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def checkout_env():
    """The environment of a fresh interpreter that imports this checkout's walkbound."""
    src = str(Path(wb.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's walkbound."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env())


def report_schema(name="run_report"):
    ref = resources.files("walkbound") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def strip_wall_time(report):
    clean = dict(report)
    clean.pop("wall_time_s")
    return clean


class TestSpectral:
    def test_sweep_passes_and_validates(self, capsys):
        code, report, _ = run_cli(capsys, ["spectral", "--m", "4"])
        assert code == 0 and report["all_hold"]
        jsonschema.validate(report, report_schema())
        names = [c["name"] for c in report["checks"]]
        assert names[0] == "K4-alpha-exact"
        assert names[1:] == ["alpha-monotone", "alpha-bound-m2", "alpha-bound-m3", "alpha-bound-m4"]
        rows = report["results"]["rows"]
        assert rows[0]["graph"] == "K4" and rows[1]["n_vertices"] == 16

    def test_bound_slack_is_the_certified_tolerance(self, capsys):
        # each row's own solver tolerance is the bound check's slack; no flag loosens it
        _, report, _ = run_cli(capsys, ["spectral", "--m", "4"])
        rows = {f"alpha-bound-m{r['m']}": r for r in report["results"]["rows"][1:]}
        checks = [c for c in report["checks"] if c["name"] in rows]
        assert len(checks) == 3 and "tol" not in report["config"]
        for check in checks:
            row = rows[check["name"]]
            assert check["slack"] == check["bound"] + row["tol"] - row["alpha"]

    def test_alpha_values_are_stable(self, capsys):
        # frozen sweep values; any drift here means the graph family changed
        _, report, _ = run_cli(capsys, ["spectral", "--m", "4"])
        measured = {r["m"]: r["alpha"] for r in report["results"]["rows"][1:]}
        assert abs(measured[2] - 0.6035533906) <= 1e-9
        assert abs(measured[3] - 0.7028819489) <= 1e-9
        assert abs(measured[4] - 0.7567894801) <= 1e-9

    def test_budget_exit(self, capsys):
        code, report, err = run_cli(capsys, ["spectral", "--m", "12"])
        assert code == 2 and report is None
        assert "budget" in err.lower() or "error" in err.lower()

    def test_m10_is_within_the_budget(self, capsys, monkeypatch):
        from walkbound import expander

        built = []

        def stop(m):
            built.append(m)
            raise wb.StructuralError("stopped before the build")

        monkeypatch.setattr(expander, "mgg_rotation", stop)
        code, _, err = run_cli(capsys, ["spectral", "--m", "10", "--m-min", "10"])
        assert code == 2 and built == [10] and "stopped" in err

    def test_dump_graph(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        code, _, _ = run_cli(capsys, ["spectral", "--m", "2", "--dump-graph", str(path)])
        assert code == 0
        assert path.read_text() == wb.adjacency_text(wb.mgg_rotation(2))

    def test_csv_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        run_cli(capsys, ["spectral", "--m", "3", "--csv", str(path)])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["graph"] for r in rows] == ["K4", "torus-m2", "torus-m3"]
        assert float(rows[1]["alpha"]) == pytest.approx(0.6035533906, abs=1e-9)

    def test_unconverged_estimate_fails_the_check(self, capsys, monkeypatch):
        # Lanczos stopped after two steps: its Ritz values sit inside the
        # spectrum, below the true alpha, and must not pass the bound check
        from walkbound import expander

        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 16)
        monkeypatch.setattr(expander, "LANCZOS_MAX_STEPS", 2)
        code, report, _ = run_cli(capsys, ["spectral", "--m", "3"])
        assert code == 1 and not report["all_hold"]
        row = report["results"]["rows"][-1]
        assert row["method"] == "lanczos" and not row["converged"]
        assert row["alpha"] <= wb.ALPHA_FAMILY_BOUND
        check = report["checks"][-1]
        assert check["name"] == "alpha-bound-m3" and not check["holds"]

    def test_both_routes_reported_above_the_dense_limit(self, capsys, monkeypatch):
        from walkbound import expander

        monkeypatch.setattr(expander, "DENSE_EIGENSOLVE_MAX", 16)
        code, report, _ = run_cli(capsys, ["spectral", "--m", "4"])
        assert code == 0 and report["all_hold"]
        jsonschema.validate(report, report_schema())
        rows = report["results"]["rows"]
        assert rows[1]["method"] == "full-eigensolve" and rows[1]["matvecs"] == {}
        assert "alpha_cover" not in rows[1]
        for row, frozen in zip(rows[2:], (0.7028819489, 0.7567894801)):
            assert row["method"] == "lanczos" and row["converged"]
            assert set(row["matvecs"]) == {"lanczos", "torus-cover"}
            assert row["iterations"] == sum(row["matvecs"].values())
            assert abs(row["alpha"] - frozen) <= 1e-9
            assert abs(row["alpha_cover"] - row["alpha"]) <= row["tol"]

    def test_alpha_drop_fails_the_monotone_check(self, capsys, monkeypatch):
        from dataclasses import replace

        from walkbound import expander

        honest = expander.torus_spectrum

        def dropped(rot, base=None):
            rep = honest(rot, base)
            return replace(rep, alpha=rep.alpha - 0.2) if rot.m == 3 else rep

        monkeypatch.setattr(expander, "torus_spectrum", dropped)
        code, report, _ = run_cli(capsys, ["spectral", "--m", "3"])
        assert code == 1
        check = report["checks"][1]
        assert check["name"] == "alpha-monotone" and not check["holds"]
        assert check["max_drop"] == pytest.approx(0.2 - (0.70288194886 - 0.60355339059), abs=1e-9)
        assert all(c["holds"] for c in report["checks"] if c["name"] != "alpha-monotone")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["amplify", "--construction", "walk", "--m", "2", "--t", "2", "--seed", "1"],
             "amplified-bound"),
            (["verify-beta", "--m", "2", "--t", "2", "--seed", "1", "--mode", "sampled",
              "--trials", "50", "--agree", "5"], "product-bound"),
        ],
        ids=["amplify", "verify-beta"],
    )
    def test_unconverged_spectrum_fails_its_consumers(self, capsys, monkeypatch, argv, name):
        from dataclasses import replace

        from walkbound import expander

        honest = expander.torus_spectrum
        monkeypatch.setattr(expander, "torus_spectrum",
                            lambda rot: replace(honest(rot), converged=False))
        code, report, _ = run_cli(capsys, argv)
        assert code == 1
        assert [c["holds"] for c in report["checks"] if c["name"] == name] == [False]


SPECTRAL_RUNS = "cli errors expander rng"
BOUND_RUNS = "cli errors prob rng"
VERIFY_BETA_RUNS = "cli errors expander prob rng walks"
AMPLIFY_RUNS = "cli errors expander owf prob rng walks"


class TestNoNumpyRandom:
    @pytest.mark.parametrize(
        "argv, code, ran",
        [
            (["spectral", "--m", "6"], 0, SPECTRAL_RUNS),
            (["verify-beta", "--m", "2", "--t", "2", "--seed", "1", "--trials", "200",
              "--agree", "0"], 0, VERIFY_BETA_RUNS),
            (["verify-beta", "--m", "2", "--t", "3", "--mode", "sampled", "--trials", "300",
              "--agree", "20", "--seed", "1"], 0, VERIFY_BETA_RUNS),
            (["bound", "--preset", "cube", "--t", "3"], 0, BOUND_RUNS),
            (["bound", "--preset", "random", "--t", "3", "--seed", "2"], 0, BOUND_RUNS),
            (["bound", "--preset", "sweep", "--count", "20", "--seed", "2"], 0, BOUND_RUNS),
            (["bound", "--instance-file", "{instance}"], 0, BOUND_RUNS),
            (["amplify", "--construction", "walk", "--m", "2", "--t", "3", "--seed", "1"], 0,
             AMPLIFY_RUNS),
            (["amplify", "--construction", "direct", "--n", "4", "--t", "2", "--seed", "1"], 0,
             AMPLIFY_RUNS),
            (["amplify", "--construction", "walk", "--m", "2", "--t", "3", "--mode", "mc",
              "--trials", "200", "--seed", "1"], 0, AMPLIFY_RUNS),
            (["amplify", "--construction", "direct", "--n", "4", "--t", "2", "--mode", "mc",
              "--trials", "200", "--seed", "1"], 0, AMPLIFY_RUNS),
            (["--version"], 0, "cli errors"),
            (["spectral"], 2, "cli errors"),
        ],
        ids=["spectral", "verify-beta-exhaustive", "verify-beta-sampled-agree", "bound-cube",
             "bound-random", "bound-sweep", "bound-instance-file", "amplify-walk-exact",
             "amplify-direct-exact", "amplify-walk-mc", "amplify-direct-mc", "version",
             "usage-error"],
    )
    def test_command_does_not_import_numpy_random(self, tmp_path, argv, code, ran):
        # every draw is a keyed hash (rng.words), so no command needs numpy's
        # generators or the OpenSSL-backed secrets module they import; and a
        # command runs only the walkbound modules it uses (a module that is
        # registered but not yet run is a lazy placeholder, not a ModuleType)
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps({"weights": [0.5, 0.5], "objects": [[0, 1], [1, 0]],
                                        "z": [0.25, 0.75], "eps": 0.01, "variant": "percoord"}))
        argv = [arg.format(instance=instance) for arg in argv]
        script = (
            "import contextlib, io, sys, types\n"
            "from walkbound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "ran = sorted(name.split('.')[1] for name, module in sys.modules.items()\n"
            "             if name.startswith('walkbound.') and type(module) is types.ModuleType)\n"
            "print(code, 'numpy.random' in sys.modules, 'secrets' in sys.modules, *ran)\n"
        )
        run = run_python(script)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [str(code), "False", "False", *ran.split()]


class TestLazyPackage:
    ALL = [
        "ALPHA_FAMILY_BOUND", "AdversaryOracle", "BlockwiseInverter", "BoundReport",
        "BudgetError", "ColoredRotation", "ContractionReport", "EnvelopeReport",
        "ExperimentConfig", "ExtensionReport", "FiniteSpace", "HybridGraph",
        "IndependenceReport", "InversionReport", "Inverter", "MarginalMismatchError",
        "ParameterError", "RandomObject", "RandomVariable", "RangedTable",
        "ReducedDirectInverter", "ReducedWalkInverter", "RepeatedInverter", "SecurityEstimate",
        "SpectralReport", "StructuralError", "ToyFunction", "Walk", "WalkChainInverter",
        "WalkSpace", "WalkboundError", "adjacency_chunks", "adjacency_text",
        "check_extension_identity", "check_independence", "check_projection_contraction",
        "conditional_expectation", "conditioned_reverse_index", "cube_instance",
        "direct_power", "envelope_check", "errors", "expander", "expectation",
        "family_event_probs", "family_event_probs_matrix", "identity_function",
        "image_distribution", "k4_rotation", "measure_inversion", "mgg_rotation", "owf",
        "percoord_bound", "planted_profile", "pooled_bound", "prob", "product_bound_sweep",
        "projection_objects", "random_families", "random_permutation",
        "random_product_instance", "reduce_direct", "reduce_walk", "repeat_amplify",
        "reverse_index", "reverse_indices", "second_eigenvalue_magnitude",
        "single_set_event_probs", "subset_sums", "tail_probability", "torus_character_blocks",
        "torus_cover_spectrum", "torus_spectrum", "validate_walk", "verify_walk_independence",
        "vertex_function", "walk_count", "walk_from_index", "walk_index", "walk_permutation",
        "walk_space", "walks",
    ]

    def test_names_load_on_first_use(self):
        script = (
            "import json, sys, types\n"
            "def ran():\n"
            "    return sorted(name for name, module in sys.modules.items()\n"
            "                  if name.startswith('walkbound.') and type(module) is types.ModuleType)\n"
            "import walkbound\n"
            "out = {'import': ran(), 'all': walkbound.__all__}\n"
            "out['space'] = walkbound.prob.FiniteSpace.__module__\n"
            "out['after_prob'] = ran()\n"
            "import walkbound.cli\n"
            "out['registered'] = sorted(name for name in sys.modules\n"
            "                           if name.startswith('walkbound.'))\n"
            "out['after_cli'] = ran()\n"
            "homes = {}\n"
            "for name in walkbound.__all__:\n"
            "    value = getattr(walkbound, name)\n"
            "    if isinstance(value, types.ModuleType):\n"
            "        home = value\n"
            "    else:\n"
            "        # classes and functions name their module; the one public\n"
            "        # constant, a numpy float, is expander's\n"
            "        home = sys.modules[value.__module__ if callable(value) else 'walkbound.expander']\n"
            "        assert value is vars(home)[name], name\n"
            "    homes[name] = home.__name__\n"
            "out['homes'] = homes\n"
            "out['modules_are_registered'] = all(\n"
            "    getattr(walkbound, m) is sys.modules['walkbound.' + m]\n"
            "    for m in ('errors', 'prob', 'expander', 'walks', 'owf'))\n"
            "print(json.dumps(out))\n"
        )
        run = run_python(script)
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["import"] == []
        assert out["all"] == self.ALL
        # walkbound.prob is an attribute from the start: no import statement runs it
        assert out["space"] == "walkbound.prob"
        assert out["after_prob"] == ["walkbound.errors", "walkbound.prob", "walkbound.rng"]
        layers = {f"walkbound.{m}" for m in ("prob", "expander", "walks", "owf")}
        assert layers <= set(out["registered"])
        assert out["after_cli"] == ["walkbound.cli", "walkbound.errors", "walkbound.prob",
                                    "walkbound.rng"]
        assert out["modules_are_registered"]
        assert set(out["homes"]) == set(self.ALL)
        assert set(out["homes"].values()) == {
            f"walkbound.{m}" for m in ("errors", "prob", "expander", "walks", "owf")}


class TestVerifyBeta:
    def test_passes_with_all_checks(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "3", "--trials", "500", "--agree", "40"],
        )
        assert code == 0 and report["all_hold"]
        jsonschema.validate(report, report_schema())
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "product-bound",
            "route-agreement",
            "full-family-probability-one",
            "empty-set-probability-zero",
        }
        assert report["results"]["independence"]["n_single"] == 1 << 16
        assert report["results"]["route_agreement_max_diff"] <= 1e-12

    def test_agree_zero_skips_route_check(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "3", "--mode", "sampled",
             "--trials", "200", "--agree", "0"],
        )
        assert code == 0
        assert "route-agreement" not in {c["name"] for c in report["checks"]}

    def test_sanity_families_take_one_matrix_call(self, capsys, monkeypatch):
        # every walk, and none: one (2, t+1, N) batch through the family route
        from walkbound import walks

        shapes = []
        honest = walks.family_event_probs_matrix

        def spy(g, t, masks):
            shapes.append(masks.shape)
            return honest(g, t, masks)

        monkeypatch.setattr(walks, "family_event_probs_matrix", spy)
        code, report, _ = run_cli(
            capsys,
            ["verify-beta", "--m", "2", "--t", "3", "--seed", "3", "--mode", "sampled",
             "--trials", "20", "--agree", "0"],
        )
        assert code == 0 and shapes == [(2, 4, 16)]
        measured = {c["name"]: c.get("measured") for c in report["checks"]}
        assert measured["full-family-probability-one"] == 1.0
        assert measured["empty-set-probability-zero"] == 0.0

    def test_sampled_report_is_pinned(self, capsys):
        # the family draws and both routes are exact, so any change to the draw
        # stream or to a route's counts moves these values
        code, report, _ = run_cli(
            capsys,
            ["verify-beta", "--m", "2", "--t", "3", "--mode", "sampled", "--trials", "3000",
             "--agree", "130", "--seed", "5"],
        )
        assert code == 0
        assert report["results"]["independence"]["worst_ratio"] == 0.4336161902041745
        assert report["results"]["independence"]["witnesses"] == []
        assert report["results"]["route_agreement_max_diff"] == 0.0

    def test_report_does_not_depend_on_the_scratch_budget(self, capsys, monkeypatch):
        # every family is drawn at its own counters, so one-family batches of
        # the sampled and the agreement families give the same report
        from walkbound import walks

        argv = ["verify-beta", "--m", "2", "--t", "3", "--mode", "sampled", "--trials", "400",
                "--agree", "30", "--seed", "5"]
        _, whole, _ = run_cli(capsys, argv)
        monkeypatch.setattr(walks, "WALK_SCRATCH_BYTES", 1)
        assert walks._batch_size(16, 3) == 1
        _, split, _ = run_cli(capsys, argv)
        assert strip_wall_time(split) == strip_wall_time(whole)

    def test_verify_beta_leaves_the_reverse_packing_unbuilt(self, capsys, monkeypatch):
        from walkbound import walks

        graphs = []

        class Recorded(wb.HybridGraph):
            def __post_init__(self):
                super().__post_init__()
                graphs.append(self)

        monkeypatch.setattr(walks, "HybridGraph", Recorded)
        code, _, _ = run_cli(capsys, ["verify-beta", "--m", "2", "--t", "3", "--mode", "sampled",
                                      "--trials", "200", "--agree", "20", "--seed", "1"])
        assert code == 0
        spaces = [space for g in graphs for space in g._spaces.values()]
        assert spaces and all("reverse" not in vars(space) for space in spaces)

    def test_amplify_leaves_the_walk_columns_unbuilt(self, capsys, monkeypatch):
        from walkbound import walks

        graphs = []

        class Recorded(wb.HybridGraph):
            def __post_init__(self):
                super().__post_init__()
                graphs.append(self)

        monkeypatch.setattr(walks, "HybridGraph", Recorded)
        code, _, _ = run_cli(capsys, ["amplify", "--construction", "walk", "--m", "3", "--t", "3",
                                      "--seed", "1"])
        assert code == 0
        spaces = [space for g in graphs for space in g._spaces.values()]
        assert spaces and all("columns" not in vars(space) for space in spaces)
        # nor does the enumeration route of the agreement check, which folds down the heads
        graphs.clear()
        code, _, _ = run_cli(capsys, ["verify-beta", "--m", "2", "--t", "3", "--mode", "sampled",
                                      "--trials", "200", "--agree", "20", "--seed", "1"])
        assert code == 0
        spaces = [space for g in graphs for space in g._spaces.values()]
        assert spaces and all("columns" not in vars(space) for space in spaces)


    def test_exact_amplify_leaves_the_reverse_packing_unbuilt(self, capsys, monkeypatch):
        # the walk permutation's checks stream over the reverse packing's ranges
        from walkbound import walks

        graphs = []

        class Recorded(wb.HybridGraph):
            def __post_init__(self):
                super().__post_init__()
                graphs.append(self)

        monkeypatch.setattr(walks, "HybridGraph", Recorded)
        code, _, _ = run_cli(capsys, ["amplify", "--construction", "walk", "--m", "3", "--t", "3",
                                      "--seed", "1"])
        assert code == 0
        spaces = [space for g in graphs for space in g._spaces.values()]
        assert spaces and all("reverse" not in vars(space) for space in spaces)

    def test_mc_amplify_builds_no_reverse_packing(self, capsys, monkeypatch):
        from walkbound import walks
        from walkbound.walks import WalkSpace

        graphs, built = [], []

        class Recorded(wb.HybridGraph):
            def __post_init__(self):
                super().__post_init__()
                graphs.append(self)

        reverse = vars(WalkSpace)["reverse"]
        fold = reverse.func

        def counted(space):
            built.append(space)
            return fold(space)

        monkeypatch.setattr(walks, "HybridGraph", Recorded)
        monkeypatch.setattr(reverse, "func", counted)
        code, _, _ = run_cli(capsys, ["amplify", "--construction", "walk", "--m", "2", "--t", "3",
                                      "--mode", "mc", "--trials", "200", "--seed", "11"])
        assert code == 0
        (g,) = graphs
        assert 3 in g._spaces and built == []
        assert wb.walk_permutation(g, 3).table is wb.walk_space(g, 3).reverse
        assert len(built) == 1 and built[0] is g._spaces[3]


class TestBound:
    def test_cube_default_is_tight(self, capsys):
        code, report, _ = run_cli(capsys, ["bound", "--preset", "cube", "--p", "0.25", "--t", "2"])
        assert code == 0
        jsonschema.validate(report, report_schema())
        names = [c["name"] for c in report["checks"]]
        assert names == ["bound-holds", "cube-tightness"]

    @pytest.mark.parametrize("t", [16, 18])
    def test_cube_sums_stay_within_tolerance_at_large_t(self, capsys, t):
        # 2**t grid points: a marginal summed one weight at a time drifted past
        # the 1e-12 tolerances (cube-tightness at t = 16, the weight check at 18)
        code, report, err = run_cli(capsys, ["bound", "--preset", "cube", "--t", str(t)])
        assert code == 0, err
        checks = [(c["name"], c["holds"]) for c in report["checks"]]
        assert checks == [("bound-holds", True), ("cube-tightness", True)]

    def test_cube_large_eps_drops_tightness(self, capsys):
        code, report, _ = run_cli(
            capsys, ["bound", "--preset", "cube", "--p", "0.25", "--t", "2", "--eps", "0.9"]
        )
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["bound-holds"]

    def test_random_preset_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, ["bound", "--preset", "random"])
        assert code == 2 and "--seed" in err

    def test_sweep_with_csv(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, report, _ = run_cli(
            capsys,
            ["bound", "--preset", "sweep", "--count", "12", "--seed", "5", "--csv", str(path),
             "--variant", "percoord", "--eps", "0.05", "0.02", "--t", "2"],
        )
        assert code == 0
        check = report["checks"][0]
        assert check["name"] == "sweep-all-hold" and check["count"] == 12
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(r["holds"] == "True" for r in rows)

    @pytest.mark.parametrize("variant", ["pooled", "percoord"])
    def test_sweep_report_does_not_depend_on_the_scratch_budget(self, capsys, monkeypatch,
                                                                variant):
        # the instance seeds and each instance's draws are keyed, so one
        # instance per block gives the same report
        from walkbound import prob

        argv = ["bound", "--preset", "sweep", "--count", "30", "--t", "3", "--psi", "4",
                "--variant", variant, "--beta", "0.4", "--seed", "7"]
        _, whole, _ = run_cli(capsys, argv)
        monkeypatch.setattr(prob, "SWEEP_SCRATCH_BYTES", 1)
        _, split, _ = run_cli(capsys, argv)
        assert strip_wall_time(split) == strip_wall_time(whole)
        assert whole["all_hold"] and len({row["seed"] for row in whole["results"]["rows"]}) == 30

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["--count", "1", "--t", "40", "--psi", "6"], 2,
             "error: a product grid of 13367494538843734067838845976576 outcomes over 40 "
             "coordinates exceeds the 1073741824-byte budget"),
            (["--t", "14400", "--psi", "2"], 2,
             "error: a product grid of at least 10**4334 outcomes over 14400 coordinates "
             "exceeds the 1073741824-byte budget"),
            (["--t", "0"], 2, "error: need t >= 1 and psi >= 1"),
            (["--count", "0", "--t", "0"], 0, ""),
            (["--eps", "0.1", "0.2", "--variant", "percoord", "--t", "3"], 2,
             "error: need exactly one eps per object"),
            (["--eps", "0.1", "0.2", "0.3", "--t", "3"], 2,
             "error: the pooled bound takes one eps, got 3"),
            (["--eps", "1.5"], 2, "error: eps must lie in (0, 1), got 1.5"),
            (["--beta", "1.5"], 2, "error: beta must lie in [0, 1], got 1.5"),
        ],
        ids=["grid-budget", "grid-past-the-int-string-limit", "t-zero", "no-instances", "eps-count", "pooled-eps-count", "eps-range",
             "beta-range"],
    )
    def test_sweep_exit_codes_and_errors(self, capsys, argv, code, error):
        got, report, err = run_cli(capsys, ["bound", "--preset", "sweep", "--seed", "1"] + argv)
        assert got == code and err.strip() == error
        assert (report is None) == (code == 2)

    def test_instance_file_pooled(self, capsys, tmp_path):
        z, objs = wb.cube_instance(0.25, 2)
        inst = {
            "weights": list(z.domain.weights),
            "objects": [list(map(int, o.index_map)) for o in objs],
            "z": list(z.values),
            "eps": 0.01,
            "variant": "pooled",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        code, report, _ = run_cli(capsys, ["bound", "--instance-file", str(path)])
        assert code == 0
        assert report["config"]["preset"] == "file"
        assert report["results"]["bound"]["holds"]

    def test_correlated_instance_fails_honestly(self, capsys, tmp_path):
        # two fully correlated coordinates with an independence-grade bound:
        # E[Z] = 1/2 but the product bound evaluates to 1/4 + 2*eps
        inst = {
            "weights": [0.5, 0.5],
            "objects": [[0, 1], [0, 1]],
            "z": [1.0, 0.0],
            "eps": 0.01,
            "variant": "pooled",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(inst))
        code, report, _ = run_cli(capsys, ["bound", "--instance-file", str(path)])
        assert code == 1
        assert not report["all_hold"]
        bound = report["results"]["bound"]
        assert bound["expectation"] == 0.5
        assert bound["bound_value"] == pytest.approx(0.27)

    def test_malformed_json_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"weights": [0.5, 0.5,\n  "objects"')
        code, report, err = run_cli(capsys, ["bound", "--instance-file", str(path)])
        assert code == 2 and report is None
        assert err.startswith("parse error: line")
        assert "column" in err

    def test_missing_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"weights": [1.0], "z": [0.5]}))
        code, _, err = run_cli(capsys, ["bound", "--instance-file", str(path)])
        assert code == 2 and "objects" in err

    @pytest.mark.parametrize(
        "content, needle",
        [
            (None, "cannot read"),
            ({"weights": "abc", "objects": [[0]], "z": [0.5]}, "weights"),
            ({"weights": [1.0], "objects": 5, "z": [0.5]}, "objects"),
            ({"weights": [1.0], "objects": [[0]], "z": [0.5], "eps": "x"}, "eps"),
            ({"weights": [0.5, 0.5], "objects": [[0, 1.7], [1, 0]], "z": [0.2, 0.9], "eps": 0.1},
             "objects"),
            ({"weights": ["0.5", "0.5"], "objects": [["0", "1"], [1, 0]], "z": ["0.2", 0.9],
              "eps": "0.1"}, "weights"),
            ({"weights": [0.5, 0.5], "objects": [[0, 1], [1, 0]], "z": [True, 0.9], "eps": 0.1},
             "'z'"),
            ({"weights": [0.5, 0.5], "objects": [[0, 1], [1, 0]], "z": [0.2, 0.9],
              "eps": [0.01, 0.5], "variant": "pooled"}, "pooled bound takes one eps"),
            ({"weights": [float("nan"), 1.0], "objects": [[0, 1]], "z": [0.5, 0.5], "eps": 0.1},
             "weights sum to nan"),
        ],
        ids=["missing-file", "weights-string", "objects-number", "eps-string", "objects-fractional",
             "numeric-strings", "z-boolean", "pooled-eps-list", "weights-nan"],
    )
    def test_malformed_instance_is_a_usage_error(self, capsys, tmp_path, content, needle):
        path = tmp_path / "inst.json"
        if content is not None:
            path.write_text(json.dumps(content))
        code, report, err = run_cli(capsys, ["bound", "--instance-file", str(path)])
        assert code == 2 and report is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err and "Traceback" not in err


class TestAmplify:
    def test_direct_exact(self, capsys):
        code, report, _ = run_cli(
            capsys, ["amplify", "--construction", "direct", "--n", "4", "--t", "2", "--seed", "11"]
        )
        assert code == 0 and report["all_hold"]
        jsonschema.validate(report, report_schema())
        res = report["results"]
        assert res["base_bits"] == 4 and res["amplified_bits"] == 8
        assert res["alpha"] == 0.0 and res["beta"] == 1.0
        assert res["amplified"]["success"] <= res["base"]["success"]
        assert res["reduced"]["success"] == res["amplified"]["success"]

    def test_walk_exact(self, capsys):
        code, report, _ = run_cli(
            capsys, ["amplify", "--construction", "walk", "--m", "2", "--t", "3", "--seed", "11"]
        )
        assert code == 0 and report["all_hold"]
        res = report["results"]
        assert res["base_bits"] == 4 and res["amplified_bits"] == 13
        assert "spectral" in res
        assert res["reduced"]["success"] == res["amplified"]["success"]
        assert report["config"]["m"] == 2

    def test_mc_mode_runs_reduction_checks(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["amplify", "--construction", "direct", "--n", "3", "--t", "2", "--seed", "2",
             "--mode", "mc", "--trials", "1500"],
        )
        assert code == 0 and report["all_hold"]
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "amplified-bound",
            "single-inner-query",
            "reduction-soundness",
            "mc-matches-exact",
            "amplified-soundness",
        ]

    def test_repeat_amplification_reported(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["amplify", "--construction", "direct", "--n", "3", "--t", "2", "--k", "8", "--seed", "4"],
        )
        assert code == 0
        res = report["results"]
        # repetition amplifies pointwise, then averages over the image; exact
        # profiles do not depend on oracle seeds, so the run is reconstructible
        func = wb.random_permutation(3, 4)
        base = wb.AdversaryOracle(func, wb.planted_profile(func, 0.25), seed=0)
        red = wb.reduce_direct(wb.BlockwiseInverter(base, 2), func, 2, seed=0)
        expected = wb.measure_inversion(func, wb.repeat_amplify(red, 8), mode="exact").success
        assert res["repeated"]["success"] == expected
        assert res["repeated"]["security"]["time_cost"] == 8 * res["reduced"]["security"]["time_cost"]

    @pytest.mark.parametrize("argv", [
        ["--construction", "direct", "--n", "4", "--t", "2", "--seed", "11"],
        ["--construction", "walk", "--m", "2", "--t", "3", "--mode", "mc", "--trials", "500",
         "--seed", "11"],
        ["--construction", "direct", "--n", "3", "--t", "2", "--mode", "mc", "--trials", "500",
         "--k", "2", "--seed", "2"],
    ], ids=["direct-exact", "walk-mc", "direct-mc-k2"])
    def test_config_validates_against_its_schema(self, capsys, argv):
        code, report, _ = run_cli(capsys, ["amplify", *argv])
        assert code == 0
        jsonschema.validate(report["config"], report_schema("experiment_config"))

    def test_walk_requires_m_and_t2(self, capsys):
        code, _, err = run_cli(capsys, ["amplify", "--construction", "walk", "--t", "3", "--seed", "1"])
        assert code == 2 and "--m" in err
        code, _, err = run_cli(
            capsys, ["amplify", "--construction", "walk", "--m", "2", "--t", "1", "--seed", "1"]
        )
        assert code == 2 and "t >= 2" in err

    def test_direct_requires_n(self, capsys):
        code, _, err = run_cli(capsys, ["amplify", "--construction", "direct", "--t", "2", "--seed", "1"])
        assert code == 2 and "--n" in err

    @pytest.mark.parametrize(
        "argv, computed",
        [
            (["--construction", "walk", "--m", "2", "--t", "3"],
             ["AdversaryOracle", "ReducedWalkInverter", "RepeatedInverter", "WalkChainInverter"]),
            (["--construction", "direct", "--n", "4", "--t", "2"],
             ["AdversaryOracle", "BlockwiseInverter", "ReducedDirectInverter", "RepeatedInverter"]),
        ],
        ids=["walk", "direct"],
    )
    def test_each_exact_profile_is_computed_once(self, capsys, monkeypatch, argv, computed):
        from walkbound import owf

        calls = []
        for name in computed:
            cls = getattr(owf, name)

            def counted(self, _exact=cls._exact_profile):
                calls.append(type(self).__name__)
                return _exact(self)

            monkeypatch.setattr(cls, "_exact_profile", counted)
        code, _, _ = run_cli(capsys, ["amplify", *argv, "--seed", "1"])
        assert code == 0
        assert sorted(calls) == computed

    @pytest.mark.parametrize(
        "argv", [["--n", "8", "--t", "3"], ["--n", "12", "--t", "2"]], ids=["n8-t3", "n12-t2"]
    )
    def test_reduced_profile_budget_is_checked_before_any_table(self, capsys, monkeypatch, argv):
        from walkbound import owf

        def never(n, seed):
            raise AssertionError("random_permutation ran before the budget was checked")

        monkeypatch.setattr(owf, "random_permutation", never)
        code, report, err = run_cli(
            capsys, ["amplify", "--construction", "direct", *argv, "--seed", "1"]
        )
        assert code == 2 and report is None
        assert err.startswith("error:") and "reduced profile" in err and err.count("\n") == 1

    def test_reduced_profile_at_the_budget_runs(self, capsys):
        # 2 x 2**22 entries: the largest direct run under the 2**24 budget at t = 2
        code, report, _ = run_cli(
            capsys, ["amplify", "--construction", "direct", "--n", "11", "--t", "2", "--seed", "1"]
        )
        assert code == 0 and report["all_hold"]


class TestHarness:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectral"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_spectral_has_no_tolerance_flag(self, capsys, monkeypatch):
        # a slack flag could loosen alpha-bound-m<m> until it cannot fail
        from walkbound import expander

        def never(m):
            raise AssertionError(f"mgg_rotation({m}) ran before the arguments were checked")

        monkeypatch.setattr(expander, "mgg_rotation", never)
        with pytest.raises(SystemExit) as exc:
            main(["spectral", "--help"])
        assert exc.value.code == 0 and "--tol" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["spectral", "--m", "2", "--tol", "1e-6"])
        assert exc.value.code == 2 and "--tol" in capsys.readouterr().err

    def test_closed_stdout_is_a_resource_error(self):
        # the reader closes its end before the report is written: exit 2 with one
        # error line, and the flush at interpreter exit raises nothing further
        proc = subprocess.Popen([sys.executable, "-m", "walkbound.cli", "spectral", "--m", "3"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=checkout_env())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_determinism_modulo_wall_time(self, capsys):
        argv = ["amplify", "--construction", "walk", "--m", "2", "--t", "2", "--seed", "9",
                "--mode", "mc", "--trials", "400"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert strip_wall_time(first) == strip_wall_time(second)
        assert first["wall_time_s"] > 0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, report, _ = run_cli(capsys, ["bound", "--preset", "cube", "--out", str(path)])
        assert json.loads(path.read_text()) == report

    def test_out_of_memory_is_a_resource_error(self, capsys, monkeypatch):
        from walkbound import expander

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(expander, "second_eigenvalue_magnitude", exhausted)
        code, report, err = run_cli(capsys, ["spectral", "--m", "3"])
        assert code == 2 and report is None
        assert err.startswith("error:") and "memory" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-beta", "--m", "2", "--t", "-1", "--seed", "1"],
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "-1"],
            ["bound", "--preset", "sweep", "--count", "-1", "--seed", "1"],
            ["bound", "--preset", "random", "--t", "40", "--psi", "6", "--seed", "1"],
            ["bound", "--preset", "cube", "--t", "70"],
            ["bound", "--preset", "cube", "--t", "14400"],
            ["bound", "--preset", "cube", "--t", "1000000"],
            ["bound", "--preset", "random", "--t", "14400", "--psi", "2", "--seed", "1"],
            ["bound", "--preset", "sweep", "--count", "1", "--t", "40", "--psi", "6", "--seed", "1"],
            ["bound", "--preset", "sweep", "--t", "0", "--seed", "1"],
            ["bound", "--preset", "sweep", "--eps", "0.1", "0.2", "--variant", "percoord",
             "--t", "3", "--seed", "1"],
            ["bound", "--preset", "sweep", "--eps", "1.5", "--seed", "1"],
            ["bound", "--preset", "sweep", "--beta", "1.5", "--seed", "1"],
            ["bound", "--preset", "cube", "--t", "3", "--eps", "0.01", "0.5", "0.9"],
        ],
    )
    def test_out_of_range_argument_is_a_usage_error(self, capsys, argv):
        code, report, err = run_cli(capsys, argv)
        assert code == 2 and report is None
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["amplify", "--construction", "walk", "--m", "13", "--t", "2", "--seed", "1"],
            ["verify-beta", "--m", "10", "--t", "2", "--seed", "1"],
            ["verify-beta", "--m", "7", "--t", "2", "--seed", "1"],
            ["verify-beta", "--m", "7", "--t", "4", "--mode", "sampled", "--trials", "10",
             "--agree", "10", "--seed", "1"],
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "1", "--mode", "sampled",
             "--trials", "-5"],
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "1", "--agree", "-5"],
            ["verify-beta", "--m", "2", "--t", "2", "--seed", "1", "--mode", "sampled",
             "--trials", "0"],
            ["spectral", "--m", "2", "--m-min", "0"],
            ["verify-beta", "--m", "7", "--t", "-1", "--mode", "sampled", "--seed", "1"],
            ["verify-beta", "--m", "7", "--t", "25", "--mode", "sampled", "--agree", "0",
             "--seed", "1"],
            ["verify-beta", "--m", "0", "--t", "2", "--seed", "1"],
            ["amplify", "--construction", "walk", "--m", "0", "--t", "2", "--seed", "1"],
            ["spectral", "--m", "11"],
            ["verify-beta", "--m", "10", "--t", "2", "--mode", "sampled", "--trials", "10",
             "--agree", "0", "--seed", "1"],
            ["verify-beta", "--m", "1", "--t", "4800", "--mode", "sampled", "--trials", "1",
             "--agree", "0", "--seed", "1"],
            ["verify-beta", "--m", "1", "--t", "10000000", "--mode", "sampled", "--trials", "1",
             "--agree", "0", "--seed", "1"],
        ],
        ids=["walk-table-over-budget", "verify-m-over-budget", "verify-exhaustive-over-budget",
             "verify-agree-over-enumeration-ceiling", "negative-trials", "negative-agree",
             "sampled-zero-trials", "spectral-m-min-zero",
             "verify-negative-t", "verify-walk-count-over-64-bits", "verify-m-zero",
             "amplify-walk-m-zero", "spectral-m-over-budget", "verify-sampled-m-over-budget",
             "verify-walk-count-4800-steps", "verify-walk-count-10**7-steps"],
    )
    def test_rejected_before_the_graph_is_built(self, capsys, monkeypatch, argv):
        from walkbound import expander

        def never(m):
            raise AssertionError(f"mgg_rotation({m}) ran before the arguments were checked")

        monkeypatch.setattr(expander, "mgg_rotation", never)
        code, report, err = run_cli(capsys, argv)
        assert code == 2 and report is None
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-beta", "--m", "1", "--t", "10000000", "--mode", "sampled", "--trials", "1",
             "--agree", "0", "--seed", "1"],
            ["bound", "--preset", "cube", "--t", "1000000"],
            ["bound", "--preset", "sweep", "--t", "1000000", "--psi", "2", "--seed", "1"],
        ],
        ids=["verify-beta", "cube", "sweep"],
    )
    def test_giant_sizes_are_refused_within_a_second(self, capsys, argv):
        # the size checks never build the walk count or the grid size: 2**(3t)
        # or 2**t as an integer takes seconds to multiply out
        start = time.perf_counter()
        code, report, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and report is None
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--preset", "cube", "--t", "10000000"],
            ["bound", "--preset", "sweep", "--t", "10000000", "--psi", "2", "--variant",
             "percoord", "--seed", "1"],
        ],
        ids=["cube", "sweep-percoord"],
    )
    def test_giant_grids_are_refused_before_any_length_t_sequence(self, capsys, argv):
        # the grid budget is decided from t and psi alone: no list of t
        # marginals, coordinates or epsilons is built first
        tracemalloc.start()
        try:
            code, report, err = run_cli(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and report is None
        assert err.startswith("error: a product grid of at least 10**3010299 outcomes")
        assert peak < 2 ** 20

    @pytest.mark.parametrize(
        "argv, classes",
        [
            (["spectral", "--m", "6"], {"SpectralReport"}),
            (["verify-beta", "--m", "2", "--t", "3", "--seed", "1"],
             {"SpectralReport", "IndependenceReport"}),
            (["bound", "--preset", "cube", "--t", "8"], {"BoundReport"}),
            (["bound", "--preset", "sweep", "--count", "5", "--t", "3", "--seed", "1"], set()),
            (["amplify", "--construction", "walk", "--m", "2", "--t", "3", "--seed", "1",
              "--mode", "mc", "--trials", "50"],
             {"SpectralReport", "InversionReport", "SecurityEstimate"}),
            (["amplify", "--construction", "direct", "--n", "3", "--t", "2", "--seed", "1",
              "--delta", "0.95", "--mode", "mc", "--trials", "50"],
             {"InversionReport", "SecurityEstimate"}),
            (None, {"EnvelopeReport"}),
        ],
        ids=["spectral", "verify-beta", "bound", "sweep", "amplify-walk", "amplify-unbounded",
             "envelope"],
    )
    def test_each_report_lists_its_fields_once(self, monkeypatch, argv, classes):
        # a report's dict is its dataclass fields plus what is derived from
        # them, and each command's report is plain JSON; no command reports
        # an envelope check, so that case calls it directly
        import walkbound.cli as cli

        derived = {wb.IndependenceReport: {"holds"}, wb.EnvelopeReport: {"holds"}}
        seen = []
        for cls in (wb.SpectralReport, wb.BoundReport, wb.IndependenceReport,
                    wb.SecurityEstimate, wb.InversionReport, wb.EnvelopeReport):
            def recorded(rep, to_dict=cls.to_dict):
                out = to_dict(rep)
                seen.append((rep, out))
                return out

            monkeypatch.setattr(cls, "to_dict", recorded)
        if argv is None:
            report = wb.envelope_check(0.5, 20, np.linspace(0.0, 1.0, 11)).to_dict()
        else:
            args = cli._build_parser().parse_args(argv)
            report = args.func(args)
        json.dumps(report, allow_nan=False)
        assert {type(rep).__name__ for rep, _ in seen} == classes
        for rep, out in seen:
            keys = {f.name for f in dataclasses.fields(rep)} | derived.get(type(rep), set())
            if isinstance(rep, wb.SpectralReport) and rep.alpha_cover is None:
                keys.remove("alpha_cover")
            assert set(out) == keys
        if argv == ["spectral", "--m", "6"]:
            # the dense rows have no covering route and the Lanczos rows do
            assert {"alpha_cover" in out for _, out in seen} == {True, False}

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectral", "--m", "2", "--out"],
            ["spectral", "--m", "3", "--csv"],
            ["spectral", "--m", "3", "--dump-graph"],
            ["bound", "--preset", "sweep", "--count", "3", "--seed", "1", "--csv"],
        ],
        ids=["out", "csv", "dump-graph", "bound-csv"],
    )
    def test_unwritable_output_path_is_a_usage_error(self, capsys, tmp_path, argv):
        code, report, err = run_cli(capsys, argv + [str(tmp_path / "missing" / "x")])
        assert code == 2 and report is None
        assert err.startswith("error:") and err.count("\n") == 1

    def test_amplify_and_sweep_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 11 ms per process
        script = (
            "import contextlib, io, sys\n"
            "from walkbound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['amplify', '--construction', 'walk', '--m', '3', '--t', '5',\n"
            "                   '--seed', '1']),\n"
            "             main(['bound', '--preset', 'sweep', '--seed', '1'])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        run = run_python(script)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["[0,", "0]", "False"]

    def test_version_field(self, capsys):
        _, report, _ = run_cli(capsys, ["bound", "--preset", "cube"])
        assert report["version"] == wb.__version__


def some(good, bad):
    """One of ``good`` two times in three, else one of ``bad``."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


def command(name, required, optional):
    """Argument vectors of ``name``: every required flag and some optional
    ones, each given a drawn value; a list value spreads over several
    arguments."""
    def argv(values):
        return [name] + [arg for flag, v in values.items()
                         for arg in [flag] + list(map(str, v if isinstance(v, list) else [v]))]

    return st.fixed_dictionaries(required, optional=optional).map(argv)


BAD_INTS = ["-1", "0", "x", "1.5"]
BAD_FLOATS = ["-1", "nan", "inf", "x", "1e400"]
SEED = some([0, 1, 7], ["-1", "x"])
COMMAND_ARGV = st.one_of(
    command("spectral", {"--m": some([1, 2, 3], [11, *BAD_INTS])},
            {"--m-min": some([1, 2, 3], BAD_INTS)}),
    command("verify-beta",
            {"--m": some([1, 2], [7, 10, *BAD_INTS]), "--t": some([0, 1, 2], [30, "-1", "x"]),
             "--seed": SEED},
            {"--mode": some(["exhaustive", "sampled"], ["x"]),
             "--trials": some([1, 20], ["-5", "0", "x"]), "--agree": some([0, 3], ["-1", "x"])}),
    command("bound", {},
            {"--preset": some(["cube", "random", "sweep"], ["x"]),
             "--p": some(["0.25", "0.6"], ["1.5", *BAD_FLOATS]),
             "--t": some([1, 2, 3], [70, *BAD_INTS]), "--psi": some([1, 2, 4], BAD_INTS),
             "--eps": some([["0.01"], ["0.1", "0.2"], ["0.5", "0.5", "0.5"]],
                           [["1.5"], ["nan"], ["-1"], ["x"]]),
             "--beta": some(["0", "0.3", "1"], ["1.5", *BAD_FLOATS]),
             "--variant": some(["pooled", "percoord"], ["x"]),
             "--count": some([0, 3], ["-1", "x"]), "--seed": SEED}),
    command("amplify", {"--t": some([1, 2, 3], BAD_INTS), "--seed": SEED},
            {"--construction": some(["direct", "walk"], ["x"]),
             "--n": some([1, 2, 3], [30, *BAD_INTS]), "--m": some([1, 2], [13, *BAD_INTS]),
             "--k": some([1, 2], ["0", "-1", "x"]),
             "--delta": some(["0.25", "0.5"], ["0", "1.5", *BAD_FLOATS]),
             "--eps": some(["0.015625", "0.2"], ["0", "1.5", *BAD_FLOATS]),
             "--mode": some(["exact", "mc"], ["x"]), "--trials": some([1, 50], ["0", "-1", "x"])}),
)
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, 1.7, -0.5, 1e308, float("nan"),
                                  float("inf"), "0.5", "1", "x", ""]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
# well-formed instances of two and four outcomes; a drawn instance replaces up
# to two of a well-formed one's fields with arbitrary JSON
INSTANCES = st.builds(
    lambda base, fields: base | fields,
    st.sampled_from([
        {"weights": [0.5, 0.5], "objects": [[0, 1], [1, 0]], "z": [0.2, 0.9]},
        {"weights": [0.5, 0.5], "objects": [[0, 1], [0, 1]], "z": [1.0, 0.0], "eps": 0.01},
        {"weights": [0.25] * 4, "objects": [[0, 0, 1, 1], [0, 1, 0, 1]], "z": [1.0, 0, 0, 0],
         "eps": [0.01, 0.02], "beta": 0.5, "variant": "percoord"},
    ]),
    st.just({}) | st.dictionaries(st.sampled_from(["weights", "objects", "z", "eps", "beta",
                                                   "variant"]),
                                  JSON_VALUES | st.sampled_from(["pooled", "percoord"]),
                                  min_size=1, max_size=2),
)


def exit_code_and_streams(argv):
    """Exit code, stdout and stderr of the CLI on ``argv``, in this process;
    argparse's own exit counts as the code it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    """0 = every check holds, 1 = a check fails, 2 = usage, parse or resource
    error, never a traceback, and a schema-valid report whenever one is due."""

    @staticmethod
    def assert_contract(argv):
        code, out, err = exit_code_and_streams(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        if code in (0, 1):
            report = json.loads(out)
            jsonschema.validate(report, report_schema())
            assert report["all_hold"] == (code == 0)
        else:
            assert not out and err

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(COMMAND_ARGV)
    def test_argument_vectors(self, argv):
        self.assert_contract(argv)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(INSTANCES)
    def test_instance_files(self, instance):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.json"
            path.write_text(json.dumps(instance))
            self.assert_contract(["bound", "--instance-file", str(path)])
