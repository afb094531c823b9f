"""CLI subcommands: exit codes, JSON reports, schema validation,
determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ugspectral
from ugspectral import core, linalg, oracle, recover
from ugspectral.core import load_instance, save_instance, value
from ugspectral.generators import PlantedSpec, planted_instance, perturb, random_regular_graph

from conftest import complete_skeleton

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)


# The CLI subprocess imports the same package as the tests, also when the
# tests found it through pytest's pythonpath setting rather than PYTHONPATH.
SRC = str(Path(ugspectral.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "ugspectral.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def validate(report):
    jsonschema.validate(report, SCHEMA)


def labels_file(tmp_path, labels):
    """A planted-labeling file holding labels, comma-separated."""
    path = tmp_path / "planted.txt"
    path.write_text(",".join(str(int(x)) for x in labels) + "\n")
    return path


@pytest.fixture
def maxlin_file(tmp_path):
    """Perturbed planted group-difference instance on a complete graph."""
    rng = np.random.default_rng(3)
    inst, planted = planted_instance(
        PlantedSpec(7, 3, complete_skeleton(7), rng.integers(0, 3, 7), "maxlin", 3)
    )
    pert = perturb(inst, planted, 0.03, seed=4, constraint_family="maxlin")
    path = tmp_path / "inst.ug"
    save_instance(pert, path)
    return path, inst, planted


class TestGen:
    def test_planted_roundtrip(self, tmp_path):
        out = tmp_path / "g.ug"
        pl = tmp_path / "g.labels"
        proc = run_cli("gen", "planted", "--n", 10, "--d", 3, "--k", 3,
                       "--seed", 1, "--out", out, "--planted-out", pl, check=True)
        inst = load_instance(out)
        labels = [int(x) for x in pl.read_text().strip().split(",")]
        assert inst.is_regular()
        assert value(inst, labels) == 1.0
        assert "second adjacency eigenvalue" in proc.stderr

    def test_planted_perturbed_maxlin(self, tmp_path):
        out = tmp_path / "g.ug"
        pl = tmp_path / "g.labels"
        run_cli("gen", "planted", "--n", 10, "--d", 3, "--k", 3,
                "--family", "maxlin", "--perturb", "0.1", "--seed", 2,
                "--out", out, "--planted-out", pl, check=True)
        inst = load_instance(out)
        labels = [int(x) for x in pl.read_text().strip().split(",")]
        assert value(inst, labels) < 1.0
        from ugspectral.maxlin import MaxLinInstance

        MaxLinInstance.from_instance(inst)

    def test_gen_to_stdout(self):
        proc = run_cli("gen", "planted", "--n", 8, "--d", 3, "--k", 2,
                       "--seed", 0, check=True)
        assert proc.stdout.startswith("ug 8 2")

    def test_single_label_is_the_skeleton(self):
        """gen planted --k 1 prints the seeded random regular skeleton with
        every weight 1 and every permutation the identity on one label."""
        proc = run_cli("gen", "planted", "--k", 1, "--n", 12, "--d", 3, "--seed", 1,
                       check=True)
        edges, lam2 = random_regular_graph(12, 3, seed=1)
        ends = np.array(edges)
        inst = core.UGInstance.from_arrays(12, 1, ends[:, 0], ends[:, 1], np.ones(len(ends)),
                                           np.zeros((len(ends), 1)))
        assert proc.stdout == core.serialize_instance(inst)
        assert proc.stderr == f"second adjacency eigenvalue: {lam2:.6f}\n"

    def test_negative_seed_exit_1(self):
        proc = run_cli("gen", "planted", "--n", 10, "--d", 3, "--k", 2, "--seed", -1)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"

    def test_planted_k_below_one_exit_1(self):
        proc = run_cli("gen", "planted", "--n", 6, "--d", 2, "--k", 0)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: need k >= 1")

    def test_negative_perturb_exit_1(self):
        proc = run_cli("gen", "planted", "--n", 10, "--d", 3, "--k", 3,
                       "--perturb", -0.1)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.endswith("error: eps must be in [0,1), got -0.1\n")

    def test_kv_gen(self, tmp_path):
        out = tmp_path / "kv.ug"
        run_cli("gen", "kv", "--kappa", 2, "--eps", 0.25, "--out", out, check=True)
        inst = load_instance(out)
        assert (inst.n, inst.k) == (4, 4)


class TestSolve:
    def test_maxlin_solve_report(self, maxlin_file):
        path, _, planted = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                       "--maxlin", check=True)
        rep = json.loads(proc.stdout)
        validate(rep)
        assert rep["decision"] == "YES"
        assert rep["best_value"] >= 0.9
        assert rep["manifest"]["input_hash"] is not None
        assert rep["expander_fast_path"] is True

    def test_generic_solve_report(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                       "--max-dim", 8, check=True)
        rep = json.loads(proc.stdout)
        validate(rep)
        assert rep["mode"] == "adjacency"
        assert rep["cut_gap"] > 0

    @pytest.mark.parametrize("flags", [(), ("--maxlin",)])
    def test_ingest_stage_timed(self, maxlin_file, flags):
        """The instance's parse, and under --maxlin its reading as a
        group-difference instance, is the ingest stage; the stages cover
        disjoint parts of the run, so they sum to at most its wall clock."""
        path, _, _ = maxlin_file
        rep = json.loads(run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                                 *flags, check=True).stdout)
        validate(rep)
        assert list(rep["stages"])[0] == "ingest" and rep["stages"]["ingest"] > 0
        assert sum(rep["stages"].values()) <= rep["manifest"]["wall_clock_s"]

    def test_theta_without_maxlin(self, maxlin_file):
        """--theta sets the generic solve's window as it does the Max-Lin
        one: the default net step is sqrt(2*eps/(theta*dim W)), and the YES
        threshold stays the one of gamma."""
        path, _, _ = maxlin_file
        base, narrow = (
            json.loads(run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                               *extra, check=True).stdout)
            for extra in ([], ["--theta", 0.3])
        )
        validate(narrow)
        assert narrow["net_step"] != base["net_step"]
        assert narrow["net_step"] == pytest.approx((2 * 0.03 / (0.3 * narrow["dim_W"])) ** 0.5)
        assert narrow["yes_threshold"] == base["yes_threshold"]

    def test_gamma_precondition_exit_1(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--gamma", 0.05, "--epsilon", 0.01)
        assert proc.returncode == 1
        assert "gamma" in proc.stderr

    def test_dimension_abort_exit_2(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                       "--max-dim", 1)
        assert proc.returncode == 2
        assert "max_dim" in proc.stderr

    def test_edgeless_dimension_abort_before_eigensolve(self, tmp_path, monkeypatch, capsys):
        """Without edges W is the whole n*k space, so a solve past max_dim
        exits 2 before any operator is built or decomposed."""
        from ugspectral import cli

        def unreachable(*args):
            raise AssertionError("edgeless solve reached the eigensolve")

        monkeypatch.setattr(recover, "search_operator", unreachable)
        monkeypatch.setattr(recover, "select_eigenspace", unreachable)
        path = tmp_path / "edgeless.ug"
        path.write_text("ug 100000 8\n")
        assert cli.main(["solve", str(path), "--epsilon", "0.01", "--gamma", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: dim(W)=800000 exceeds max_dim=8")

    def test_edgeless_within_max_dim_solves(self, tmp_path):
        path = tmp_path / "edgeless.ug"
        path.write_text("ug 3 2\n")
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5, "--net-step", 1,
                       check=True)
        rep = json.loads(proc.stdout)
        assert rep["dim_W"] == 6 and rep["best_value"] == 1.0

    def test_edgeless_maxlin_over_net_cap_solves(self, tmp_path):
        """A 4-vertex Z_3 instance without edges searches all 12
        dimensions, whose net is over the cap: the solve reads off its first
        point alone, and a step whose radius overflows still exits 2, on the
        8-dim net of the twisted part it walks."""
        path = tmp_path / "edgeless.ml"
        path.write_text("maxlin 4 3\n")
        args = ("solve", path, "--epsilon", 0.01, "--gamma", 0.5, "--maxlin", "--max-dim", 12)
        rep = json.loads(run_cli(*args, check=True).stdout)
        validate(rep)
        assert rep["dim_W"] == 12 and rep["best_value"] == 1.0
        proc = run_cli(*args, "--net-step", 1e-200)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: net at dim=8,")

    @pytest.mark.parametrize("header, args", [
        ("ug 1 2", ("--net-step", 1e-10)),
        ("ug 1 2", ("--mode", "laplacian", "--net-step", 1e-12)),
        ("maxlin 2 2", ("--maxlin", "--max-dim", 4, "--net-step", 1e-12)),
    ], ids=["adjacency", "laplacian", "maxlin"])
    def test_edgeless_radius_beyond_exact_walk_exit_2(self, tmp_path, header, args):
        """Without edges only the first net point is read off, but a radius
        too large for the exact walk is still a net too large: exit 2.  Each
        alphabet has k >= 2, so the walk has a twisted coordinate."""
        path = tmp_path / "edgeless.ug"
        path.write_text(f"{header}\n")
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5, *args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: net at dim=")
        assert "beyond exact counting" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_exit_1(self):
        proc = run_cli("solve", "/nonexistent.ug", "--epsilon", 0.01,
                       "--gamma", 0.5)
        assert proc.returncode == 1

    @pytest.mark.parametrize("flags, named", [
        (("--net-step", "nan", "--max-dim", 12), "got nan"),
        (("--net-step", "inf"), "got inf"),
        (("--gamma", "inf", "--theta", 0.5), "gamma must be finite, got inf"),
    ])
    def test_non_finite_parameter_exit_1(self, maxlin_file, flags, named):
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5, *flags)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_net_step_overflowing_radius_exit_2(self, maxlin_file):
        """A step so small that the net's radius overflows is a net over
        the cap, not a traceback."""
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5,
                       "--max-dim", 20, "--net-step", 1e-300)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: net would have more than cap")

    def test_maxlin_rejects_laplacian_mode(self, maxlin_file):
        """solve_maxlin searches the adjacency window only, so asking it for
        the Laplacian one is an error, not a report saying "adjacency"."""
        path, _, _ = maxlin_file
        proc = run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                       "--maxlin", "--mode", "laplacian")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: Max-Lin searches the adjacency window, "
                               "not mode 'laplacian'\n")

    def test_maxlin_non_regular_exit_1(self, tmp_path):
        """On a 3-vertex path the Max-Lin solve names the d-regular
        requirement without advising laplacian mode, which it rejects; a
        parameter error is still reported first."""
        path = tmp_path / "path.ug"
        path.write_text("maxlin 3 2\n0 1 1.0 0\n1 2 1.0 1\n")
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5, "--maxlin")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "d-regular" in proc.stderr and "laplacian" not in proc.stderr
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.05, "--maxlin")
        assert proc.returncode == 1 and "gamma" in proc.stderr
        assert "d-regular" not in proc.stderr

    def test_maxlin_single_label_exit_1(self, tmp_path):
        path = tmp_path / "k1.ug"
        path.write_text("ug 1 1\n0 0 1.0 0\n")
        proc = run_cli("solve", path, "--epsilon", 0.01, "--gamma", 0.5, "--maxlin")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: Max-Lin needs k >= 2, got k=1\n"

    @pytest.mark.parametrize("module, name, command", [
        ("cli", "dense_symmetric", ["spectrum"]),
        ("recover", "select_eigenspace",
         ["solve", "--epsilon", "0.01", "--gamma", "0.5", "--mode", "laplacian"]),
    ])
    def test_out_of_memory_exit_2(self, maxlin_file, monkeypatch, capsys, module, name, command):
        """An allocation that fails (raised here, never attempted) exits 2
        with one error line, not a traceback."""
        from ugspectral import cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.66 TiB")

        monkeypatch.setattr({"cli": cli, "recover": recover}[module], name, exhausted)
        path, _, _ = maxlin_file
        assert cli.main([command[0], str(path), *command[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: out of memory: Unable to allocate 4.66 TiB\n"

    def test_deterministic_up_to_timings(self, maxlin_file):
        path, _, _ = maxlin_file
        outs = []
        for _ in range(2):
            proc = run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                           "--maxlin", check=True)
            rep = json.loads(proc.stdout)
            rep.pop("eigen_time"), rep.pop("enumeration_time"), rep.pop("stages")
            rep["manifest"].pop("wall_clock_s")
            outs.append(rep)
        assert outs[0] == outs[1]


class TestOracle:
    def test_report_and_schema(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("oracle", path, check=True)
        rep = json.loads(proc.stdout)
        validate(rep)
        inst = load_instance(path)
        assert value(inst, rep["best_labeling"]) == rep["best_value"]

    def test_budget_exit_2(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("oracle", path, "--budget", 2)
        assert proc.returncode == 2

    @pytest.mark.parametrize("budget", [-1, 0])
    def test_non_positive_budget_exit_1(self, maxlin_file, budget):
        path, _, _ = maxlin_file
        proc = run_cli("oracle", path, "--budget", budget)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: budget must be a positive integer, got {budget}\n"

    def test_manifest_reports_constants(self, maxlin_file):
        """The manifest's numeric_config block reports the tolerances and
        budgets the code fixes."""
        path, _, _ = maxlin_file
        rep = json.loads(run_cli("oracle", path, check=True).stdout)
        validate(rep)
        assert rep["manifest"]["numeric_config"] == {
            "residual_tol": linalg.RESIDUAL_TOL,
            "regularity_rel_tol": core.REGULARITY_REL_TOL,
            "net_cap": recover.NET_CAP,
            "brute_budget": oracle.BRUTE_BUDGET,
        }


class TestSpectrum:
    def test_line_format(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("spectrum", path, check=True)
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 7 * 3
        vals = []
        for i, line in enumerate(lines):
            idx, lam = line.split()
            assert int(idx) == i
            vals.append(float(lam))
        assert vals == sorted(vals, reverse=True)

    def test_laplacian_flag(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("spectrum", path, "--mode", "laplacian", check=True)
        vals = [float(line.split()[1]) for line in proc.stdout.strip().splitlines()]
        assert min(vals) >= -1e-9


class TestDiagnose:
    def test_closeness_report(self, maxlin_file, tmp_path):
        path, _, planted = maxlin_file
        proc = run_cli("diagnose", path, "--epsilon", 0.05, "--gamma", 0.5,
                       "--planted-file", labels_file(tmp_path, planted), check=True)
        rep = json.loads(proc.stdout)
        validate(rep)
        assert rep["alpha"] ** 2 + rep["beta"] ** 2 == pytest.approx(1.0)

    def test_maxlin_perturbation_report(self, maxlin_file, tmp_path):
        path, completion, _ = maxlin_file
        comp_path = tmp_path / "completion.ug"
        save_instance(completion, comp_path)
        proc = run_cli("diagnose", path, "--completion", comp_path, "--gamma", 0.5,
                       check=True)
        rep = json.loads(proc.stdout)
        validate(rep)
        assert rep["beta_measured"] <= rep["beta_bound"] + 1e-8

    def test_maxlin_needs_no_labeling(self, maxlin_file, tmp_path):
        """The sin-theta diagnosis reads the instance and its completion
        only."""
        path, completion, _ = maxlin_file
        comp_path = tmp_path / "completion.ug"
        save_instance(completion, comp_path)
        proc = run_cli("diagnose", "--completion", comp_path, path, check=True)
        validate(json.loads(proc.stdout))

    def test_maxlin_infinite_bound_is_null(self, tmp_path):
        """Nothing of the completion's spectrum lies below Y here, so
        lambda_s is -inf: the report writes null and stays strict JSON."""
        path = tmp_path / "loops.ug"
        path.write_text("maxlin 2 2\n0 0 1.0 0\n1 1 1.0 0\n0 1 1.0 0\n")
        proc = run_cli("diagnose", path, "--completion", path,
                       "--epsilon", 0.01, "--gamma", 1.0, check=True)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rep = json.loads(proc.stdout, parse_constant=reject)
        validate(rep)
        assert rep["lambda_s"] is None and rep["beta_bound"] == 0.0

    @pytest.mark.parametrize("header", ["maxlin 3 2", "maxlin 2 4"], ids=["n", "k"])
    def test_maxlin_completion_of_other_shape_exit_1(self, tmp_path, header):
        """A completion with another n or k is a usage error, caught before
        either label-extended matrix is built."""
        path, comp_path = tmp_path / "a.ug", tmp_path / "b.ug"
        path.write_text("maxlin 2 2\n0 1 1.0 0\n")
        comp_path.write_text(f"{header}\n0 1 1.0 1\n")
        proc = run_cli("diagnose", "--completion", comp_path, path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: instance and completion must share")
        assert "Traceback" not in proc.stderr

    def test_maxlin_non_regular_exit_1(self, tmp_path):
        """A 4-cycle with a self-loop and a parallel edge is not regular, so
        the perturbation diagnosis refuses it, as solve --maxlin does."""
        path = tmp_path / "loops.ug"
        path.write_text("maxlin 4 3\n0 1 1 1\n1 2 1 2\n2 3 1 0\n3 0 1 1\n0 0 1 1\n0 1 1 1\n")
        proc = run_cli("diagnose", "--completion", path, path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: Max-Lin needs a d-regular constraint graph")

    def test_maxlin_rejects_laplacian_mode(self, maxlin_file, tmp_path):
        path, completion, _ = maxlin_file
        comp_path = tmp_path / "completion.ug"
        save_instance(completion, comp_path)
        proc = run_cli("diagnose", path, "--completion", comp_path, "--mode", "laplacian")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: Max-Lin searches the adjacency window")

    @pytest.mark.parametrize("gamma", [-0.5, 2])
    def test_maxlin_gamma_validated(self, maxlin_file, tmp_path, gamma):
        """The sin-theta diagnosis checks gamma as solve --maxlin does."""
        path, completion, _ = maxlin_file
        comp_path = tmp_path / "completion.ug"
        save_instance(completion, comp_path)
        proc = run_cli("diagnose", "--completion", comp_path, "--gamma", gamma, path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "gamma" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_label_token_exit_1(self, maxlin_file, tmp_path):
        path, _, _ = maxlin_file
        labels = tmp_path / "planted.txt"
        labels.write_text("0,x,1\n")
        proc = run_cli("diagnose", path, "--planted-file", labels)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: bad labeling") and "'x'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_requires_planted(self, maxlin_file):
        path, _, _ = maxlin_file
        proc = run_cli("diagnose", path)
        assert proc.returncode == 1

    def test_exactly_one_input_file(self, maxlin_file, tmp_path):
        """diagnose takes one input file, which picks its report: given a
        planted labeling and a completion both, it exits 1."""
        path, completion, planted = maxlin_file
        comp_path = tmp_path / "completion.ug"
        save_instance(completion, comp_path)
        proc = run_cli("diagnose", path, "--planted-file", labels_file(tmp_path, planted),
                       "--completion", comp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "not allowed with argument" in proc.stderr


class TestKVSpectrum:
    def test_closed_form_lines(self):
        proc = run_cli("kv-spectrum", "--kappa", 2, "--eps", 0.25, check=True)
        rows = [line.split() for line in proc.stdout.strip().splitlines()]
        assert [(float(a), int(b)) for a, b in rows] == [
            (4 * 0.5**r, math.comb(4, r)) for r in range(5)
        ]

    @pytest.mark.parametrize("kappa", [0, -1])
    def test_kappa_below_one_exit_1(self, kappa):
        proc = run_cli("kv-spectrum", "--kappa", kappa, "--eps", 0.25)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: kappa must be an integer >= 1, got {kappa}\n"


@pytest.mark.parametrize("command", [
    ["solve", "{bad}", "--epsilon", "0.01", "--gamma", "0.5"],
    ["oracle", "{bad}"],
    ["diagnose", "{bad}", "--planted-file", "{ok}"],
    ["diagnose", "{ok}", "--completion", "{bad}"],
    ["diagnose", "{ok}", "--planted-file", "{bad}"],
], ids=["solve", "oracle", "diagnose", "completion", "planted-file"])
def test_non_utf8_file_exit_1(tmp_path, command):
    """An instance, completion or planted file that is not UTF-8 is named
    in one error line."""
    bad, ok = tmp_path / "bin.ug", tmp_path / "ok.ug"
    bad.write_bytes(b"ug 2 2\n0 1 1.0 0 1 \xff\xfe\n")
    ok.write_text("ug 2 2\n0 1 1.0 0 1\n")
    proc = run_cli(*(arg.format(bad=bad, ok=ok) for arg in command))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {bad}: not UTF-8 text: ")
    assert "Traceback" not in proc.stderr


def test_byte_order_mark_ignored(maxlin_file, tmp_path):
    """An instance or planted file that starts with a UTF-8 byte-order mark
    gives the same instance and reports as the file without it (all but the
    manifest, which hashes the file and times the run)."""
    path, _, planted = maxlin_file
    labels = tmp_path / "planted.txt"
    labels.write_text(",".join(str(int(x)) for x in planted) + "\n")
    marked, marked_labels = tmp_path / "marked.ug", tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked_labels.write_bytes(b"\xef\xbb\xbf" + labels.read_bytes())
    assert core.serialize_instance(load_instance(marked)) == path.read_text()

    def reports(instance, planted_file):
        out = []
        for command in (("solve", instance, "--epsilon", 0.03, "--gamma", 0.5, "--maxlin"),
                        ("diagnose", instance, "--epsilon", 0.05, "--gamma", 0.5,
                         "--planted-file", planted_file)):
            rep = json.loads(run_cli(*command, check=True).stdout)
            for key in ("eigen_time", "enumeration_time", "stages", "manifest"):
                rep.pop(key, None)
            out.append(rep)
        return out

    assert reports(marked, marked_labels) == reports(path, labels)


def test_unknown_arguments_exit_1():
    assert run_cli("solve").returncode == 1
    assert run_cli("frobnicate").returncode == 1


def test_removed_flags_rejected(maxlin_file, tmp_path):
    """solve --threads, --yes-constant, --uniformity-c and --seed, gen kv
    --planted-out, gen regular (gen planted --k 1 prints the same),
    diagnose --maxlin and --planted (the input file picks the report),
    kv-spectrum --n (--kappa) and spectrum --laplacian (--mode laplacian)
    are gone, and no long flag is taken by a prefix of it."""
    path, completion, planted = maxlin_file
    comp_path = tmp_path / "completion.ug"
    save_instance(completion, comp_path)
    labels = labels_file(tmp_path, planted)
    for flag in (("--threads", 2), ("--yes-constant", 10.0),
                 ("--maxlin", "--uniformity-c", 2.0), ("--seed", 0)):
        assert run_cli("solve", path, "--epsilon", 0.03, "--gamma", 0.5,
                       *flag).returncode == 1
    for command in (
        ("gen", "kv", "--kappa", 2, "--eps", 0.25, "--planted-out", tmp_path / "p"),
        ("gen", "regular", "--n", 6, "--d", 2),
        ("diagnose", path, "--maxlin", "--completion", comp_path),
        ("diagnose", path, "--planted", ",".join(str(int(x)) for x in planted)),
        ("kv-spectrum", "--n", 4, "--eps", 0.25),
        ("spectrum", path, "--laplacian"),
        ("solve", path, "--eps", 0.03, "--gamma", 0.5),
        ("diagnose", path, "--planted", labels),
        ("gen", "planted", "--n", 6, "--d", 2, "--k", 2, "--se", 1),
    ):
        proc = run_cli(*command)
        assert proc.returncode == 1 and proc.stdout == "", command


def test_dense_path_never_imports_scipy_sparse():
    """The package and a dense-path solve (KV kappa=2, nk = 16) in a fresh
    interpreter leave scipy.sparse unimported: the sparse branch imports it
    on first use; importing scipy.sparse.linalg raises a bare numpy
    interpreter's peak RSS from 27 to 59 MiB."""
    code = (
        "import sys, ugspectral\n"
        "from ugspectral.generators import KVSpec, kv_instance\n"
        "from ugspectral.recover import SolveParams, recover_solution\n"
        "rep = recover_solution(kv_instance(KVSpec(2, 0.25)),\n"
        "                       SolveParams(0.01, 1.0, max_dim=16, net_step_override=2.5))\n"
        "print(rep.dim_W, 'scipy.sparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    dim_W, imported = proc.stdout.split()
    assert int(dim_W) >= 1 and imported == "False"
