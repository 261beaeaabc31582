"""Command-line surface: verbs, exit codes, JSON shape, and determinism."""

import json
import os
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypermatch import cli
from hypermatch.cli import main
from hypermatch.construct import extremal_link_graph, threshold
from hypermatch.core import Hypergraph, load_hg, save_hg
from hypermatch.link import format_mask, parse_mask
from hypermatch.pipeline import PipelineConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestGen:
    def test_extremal_writes_hg_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "e16.hg"
        code, report = run_json(
            capsys, "gen", "extremal", "--n", "16", "--out", str(out), "--no-timings"
        )
        assert code == 0
        h = load_hg(out)
        assert h.n == 16 and h.min_degree(1) == threshold(16) - 1
        manifest = json.loads((tmp_path / "e16.hg.manifest.json").read_text())
        assert manifest["kind"] == "extremal" and manifest["n"] == 16

    def test_hext_mask(self, capsys):
        code, out = run(capsys, "gen", "hext")
        assert code == 0
        assert out.strip() == format_mask(extremal_link_graph())
        assert int(out.strip(), 16).bit_count() == 37

    def test_random_meets_min_degree(self, tmp_path, capsys):
        out = tmp_path / "r12.hg"
        code, _ = run(
            capsys, "gen", "random", "--n", "12", "--min-deg", "82",
            "--seed", "7", "--out", str(out), "--no-timings",
        )
        assert code == 0
        assert load_hg(out).min_degree(1) >= 82

    def test_bad_params_exit_2(self, capsys):
        code = main(["gen", "random", "--n", "12"])  # missing --min-deg
        assert code == 2


class TestSolve:
    def test_extremal_exact_exit_1(self, tmp_path, capsys):
        out = tmp_path / "e8.hg"
        run(capsys, "gen", "extremal", "--n", "8", "--out", str(out), "--no-timings")
        code, report = run_json(
            capsys, "solve", str(out), "--mode", "exact", "--no-timings"
        )
        assert code == 1 and report["status"] == "none"
        assert report["max_matching"] == 1 and report["perfect_matching"] is False

    def test_complete_exit_0(self, tmp_path, capsys):
        out = tmp_path / "k8.hg"
        run(capsys, "gen", "complete", "--n", "8", "--out", str(out), "--no-timings")
        code, report = run_json(
            capsys, "solve", str(out), "--mode", "exact", "--no-timings"
        )
        assert code == 0 and report["status"] == "found"
        assert report["perfect_matching"] and len(report["matching"]) == 2

    def test_budget_exhausted_gave_up_exit_3(self, tmp_path, capsys):
        out = tmp_path / "k16.hg"
        run(capsys, "gen", "complete", "--n", "16", "--out", str(out), "--no-timings")
        code, report = run_json(
            capsys, "solve", str(out), "--mode", "exact", "--budget", "3",
            "--no-timings",
        )
        assert code == 3 and report["status"] == "gave-up"
        assert report["perfect_matching"] is None and not report["optimal"]
        assert "matching" not in report

    def test_pipeline_mode_validates(self, tmp_path, capsys):
        out = tmp_path / "p24.hg"
        run(capsys, "gen", "planted", "--n", "24", "--noise", "0.1",
            "--out", str(out), "--no-timings")
        code, report = run_json(
            capsys, "solve", str(out), "--mode", "pipeline", "--no-timings"
        )
        assert code == 0 and report["perfect_matching"]

    def test_skipped_fallback_gave_up_exit_3(self, tmp_path, capsys, monkeypatch):
        # below threshold the pipeline ends in its exact fallback; capping the
        # fallback under n leaves the answer unproven
        out = tmp_path / "e8.hg"
        run(capsys, "gen", "extremal", "--n", "8", "--out", str(out), "--no-timings")
        monkeypatch.setattr(
            cli, "PipelineConfig", lambda seed: PipelineConfig(seed=seed, fallback_n_max=4)
        )
        code, report = run_json(
            capsys, "solve", str(out), "--mode", "pipeline", "--no-timings"
        )
        assert code == 3 and report["status"] == "gave-up"
        assert report["perfect_matching"] is None

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("not a header")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("n, r", [(12, 3), (20, 5)])
    def test_other_uniformity_exit_2(self, n, r, tmp_path, capsys):
        rng = random.Random(1)
        edges = [e for e in combinations(range(n), r) if rng.random() < 0.7]
        path = tmp_path / "h.hg"
        save_hg(Hypergraph(n, r, edges), path)
        assert main(["solve", str(path), "--mode", "pipeline", "--no-timings"]) == 2
        assert f"r = {r}" in json.loads(capsys.readouterr().err)["error"]

    def test_auto_mode_solves_other_uniformity_exactly(self, tmp_path, capsys):
        rng = random.Random(1)
        edges = [e for e in combinations(range(12), 3) if rng.random() < 0.7]
        path = tmp_path / "h.hg"
        save_hg(Hypergraph(12, 3, edges), path)
        code, auto = run_json(capsys, "solve", str(path), "--no-timings")
        _, exact = run_json(capsys, "solve", str(path), "--mode", "exact", "--no-timings")
        assert code == 0 and auto["path"] == "exact" and auto["status"] == "found"
        assert {k: v for k, v in auto.items() if k != "mode"} == {
            k: v for k, v in exact.items() if k != "mode"
        }


class TestClassify:
    def test_full_mask_pm(self, capsys):
        code, report = run_json(capsys, "classify", "f" * 16, "--no-timings")
        assert code == 0 and report["verdict"] == "PerfectMatching"

    def test_hext_ext(self, capsys):
        mask = format_mask(extremal_link_graph())
        code, report = run_json(capsys, "classify", mask, "--no-timings")
        assert code == 0
        assert report["verdict"] == "Ext" and report["witness"] == [0, 0, 0]
        assert report["witness_ok"]

    def test_popcount_36_not_applicable(self, capsys):
        mask = format_mask((1 << 36) - 1)
        code, report = run_json(capsys, "classify", mask, "--no-timings")
        assert code == 1 and report["verdict"] == "NotApplicable"

    def test_malformed_hex_exit_2(self, capsys):
        assert main(["classify", "xyz"]) == 2

    def test_reads_mask_from_file(self, tmp_path, capsys):
        p = tmp_path / "m.hex"
        p.write_text("f" * 16 + "\n")
        code, report = run_json(capsys, "classify", str(p), "--no-timings")
        assert code == 0 and report["popcount"] == 64

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text())
    @example(text="-h")
    @example(text="--bogus")
    @example(text="/")
    @example(text="0" * 15 + "\x00")
    def test_arbitrary_text(self, text, tmp_path, monkeypatch, capsys):
        # relative paths resolve in an empty directory, so only an absolute
        # path can name a file
        monkeypatch.chdir(tmp_path)
        try:
            mask = parse_mask(text)
        except ValueError:
            mask = None
        code = main(["classify", text, "--no-timings"])
        capsys.readouterr()
        if text.startswith("-"):
            # argparse may read it as an option: help exits 0, the rest 2
            assert code in (0, 2)
        elif os.path.exists(text):
            assert code in (0, 1, 2)
        elif mask is None:
            assert code == 2
        else:
            assert code == (1 if mask.bit_count() < 37 else 0)


class TestVerify:
    def test_lemma37_clean(self, capsys):
        code, report = run_json(
            capsys, "verify", "lemma37", "--samples", "400",
            "--adversarial", "100", "--no-timings",
        )
        assert code == 0 and report["violations"] == []
        assert report["counts"]["uniform"] >= 400
        assert report["counts"]["adversarial"] >= 100

    def test_tightness(self, capsys):
        code, report = run_json(
            capsys, "verify", "tightness", "--n", "8,12,16", "--no-timings"
        )
        assert code == 0 and report["violations"] == []

    @pytest.mark.parametrize("campaign", ["pipeline", "absorb"])
    def test_one_size_campaign_rejects_size_list(self, campaign, capsys):
        code = main(["verify", campaign, "--n", "8,12", "--instances", "1",
                     "--samples", "2", "--no-timings"])
        err = capsys.readouterr().err
        assert code == 2 and "takes one --n" in err

    def test_solver_agreement(self, capsys):
        code, report = run_json(
            capsys, "verify", "solver", "--trials", "60", "--no-timings"
        )
        assert code == 0 and report["counts"]["trials"] >= 60

    def test_deterministic_bytes(self, capsys):
        args = ("verify", "lemma37", "--samples", "200", "--adversarial", "50",
                "--seed", "q", "--no-timings")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestStats:
    def test_extremal_below_threshold(self, tmp_path, capsys):
        out = tmp_path / "e8.hg"
        run(capsys, "gen", "extremal", "--n", "8", "--out", str(out), "--no-timings")
        code, report = run_json(capsys, "stats", str(out), "--no-timings")
        assert code == 0
        assert report["min_degree_1"] == 15
        assert report["threshold"] == 16
        assert report["threshold_flag"] == "below threshold"

    def test_complete_above(self, tmp_path, capsys):
        out = tmp_path / "k8.hg"
        run(capsys, "gen", "complete", "--n", "8", "--out", str(out), "--no-timings")
        code, report = run_json(capsys, "stats", str(out), "--no-timings")
        assert report["min_degree_1"] == 35 and report["threshold_flag"] == "above"

    def test_single_edge(self, tmp_path, capsys):
        p = tmp_path / "one.hg"
        p.write_text("4 4 1\n0 1 2 3\n")
        code, report = run_json(capsys, "stats", str(p), "--no-timings")
        assert code == 0 and report["min_degree_1"] == 1

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_SEED", "zz")
        # parser default is read at build time inside main
        out = tmp_path / "r.hg"
        code, report = run_json(
            capsys, "gen", "random", "--n", "8", "--min-deg", "5",
            "--out", str(out), "--no-timings",
        )
        assert code == 0 and report["manifest"]["seed"] == "zz"
