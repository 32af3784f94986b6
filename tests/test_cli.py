import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import safs
from safs import scanner
from safs.cli import canonical_json, main
from synth import make_dataset, noise_dataset, planted_dataset, random_dataset, write_csv


@pytest.fixture
def planted_csv(tmp_path):
    ds, truth, inside = planted_dataset(0, n=800, n_noise=5)
    path = tmp_path / "planted.csv"
    write_csv(path, ds)
    return str(path), ds


@pytest.fixture
def random_csv(tmp_path):
    ds = random_dataset(1, n=150, n_features=4)
    path = tmp_path / "random.csv"
    write_csv(path, ds)
    return str(path), ds


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_module(argv):
    """Stdout of ``python -m safs.cli`` with ``argv``, in a new process."""
    env = dict(os.environ)
    src = str(Path(safs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "safs.cli", *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


class TestRankCommand:

    def test_json_and_determinism(self, capsys, random_csv):
        path, _ = random_csv
        argv = ["rank", "--input", path, "--outcome-col", "y"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        # the payload is byte-stable across runs; timings are volatile
        assert json.loads(out1)["payload"] == json.loads(out2)["payload"]
        doc = json.loads(out1)
        assert doc["schema"] == "safs/1"
        assert doc["kind"] == "ranking"
        scores = [e["score"] for e in doc["payload"]["entries"]]
        assert scores == sorted(scores, reverse=True)
        assert doc["volatile"]["elapsed_ms"] > 0 and doc["volatile"]["load_ms"] > 0

    def test_payload_round_trip_is_canonical(self, capsys, random_csv):
        path, _ = random_csv
        _, out = run(capsys, ["rank", "--input", path, "--outcome-col", "y"])
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n" == out

    def test_text_format(self, capsys, random_csv):
        path, ds = random_csv
        code, out = run(capsys, ["rank", "--input", path, "--outcome-col", "y",
                                 "--format", "text"])
        assert code == 0
        assert len(out.strip().splitlines()) == ds.n_features

    def test_top_k_listing(self, capsys, random_csv):
        path, ds = random_csv
        argv = ["rank", "--input", path, "--outcome-col", "y", "--top-k", "2"]
        _, out = run(capsys, argv)
        doc = json.loads(out)
        assert len(doc["payload"]["entries"]) == ds.n_features
        assert len(doc["payload"]["top_k"]) == 2
        assert doc["payload"]["top_k"] == [
            e["feature"] for e in doc["payload"]["entries"][:2]]
        # the text listing stops after the K-th row
        _, text = run(capsys, [*argv, "--format", "text"])
        assert [line.split()[0] for line in text.splitlines()] == doc["payload"]["top_k"]

    def test_mi_method(self, capsys, random_csv):
        path, _ = random_csv
        code, out = run(capsys, ["rank", "--input", path, "--outcome-col", "y",
                                 "--method", "mi"])
        assert code == 0
        assert json.loads(out)["payload"]["method"] == "mutual-information"

    def test_out_file(self, capsys, random_csv, tmp_path):
        path, _ = random_csv
        target = tmp_path / "rank.json"
        code, out = run(capsys, ["rank", "--input", path, "--outcome-col", "y",
                                 "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "ranking"


class TestScanCommand:

    def test_fields(self, capsys, planted_csv):
        path, ds = planted_csv
        code, out = run(capsys, ["scan", "--input", path, "--outcome-col", "y",
                                 "--restarts", "5"])
        assert code == 0
        doc = json.loads(out)
        payload = doc["payload"]
        assert payload["kind"] == "scan"
        assert all(doc["volatile"][key] > 0 for key in ("load_ms", "rank_ms", "scan_ms"))
        assert payload["score"] > 0
        assert 0 < payload["subset_size"] <= ds.n_records
        assert payload["subset_fraction"] == payload["subset_size"] / ds.n_records
        assert isinstance(payload["descriptor"], dict)

    def test_top_k_full_matches_default(self, capsys, planted_csv):
        path, ds = planted_csv
        base = ["scan", "--input", path, "--outcome-col", "y", "--restarts", "5"]
        _, full = run(capsys, base)
        _, with_k = run(capsys, base + ["--top-k", str(ds.n_features)])
        assert json.loads(full)["payload"]["descriptor"] == \
            json.loads(with_k)["payload"]["descriptor"]

    def test_text_format(self, capsys, planted_csv):
        path, _ = planted_csv
        code, out = run(capsys, ["scan", "--input", path, "--outcome-col", "y",
                                 "--restarts", "3", "--format", "text"])
        assert code == 0
        assert "Odds ratio" in out

    def test_unwritable_out_is_a_data_error(self, capsys, planted_csv, tmp_path):
        path, _ = planted_csv
        target = tmp_path / "missing-dir" / "scan.json"
        code = main(["scan", "--input", path, "--outcome-col", "y", "--restarts", "1",
                     "--out", str(target)])
        assert code == 2
        assert f"cannot write {target}" in capsys.readouterr().err


class TestPipelineCommand:

    def test_planted_recovery(self, capsys, planted_csv):
        path, ds = planted_csv
        code, out = run(capsys, [
            "pipeline", "--input", path, "--outcome-col", "y",
            "--top-k", "5", "--restarts", "5", "--permutations", "30",
            "--threads", "4"])
        assert code == 0
        doc = json.loads(out)
        payload = doc["payload"]
        assert payload["kind"] == "pipeline"
        assert all(doc["volatile"][key] > 0
                   for key in ("load_ms", "rank_ms", "scan_ms", "p_value_ms"))
        assert payload["p_value"] <= 0.05
        assert payload["odds_ratio"] > 1
        assert payload["ci"][0] <= payload["odds_ratio"] <= payload["ci"][1]
        assert not payload["no_divergence"]
        # planted constraints: f00 in {0}, f01 in {0, 1}, f02 in {0}
        # (labels are bin intervals after the CSV round trip)
        descriptor = payload["descriptor"]
        assert set(descriptor) == {"f00", "f01", "f02"}
        assert {k: len(v) for k, v in descriptor.items()} == {
            "f00": 1, "f01": 2, "f02": 1}

    def test_noise_calibration(self, tmp_path, capsys):
        significant = 0
        for seed in range(50):
            ds = noise_dataset(seed, n=100, m=3)
            path = tmp_path / f"noise{seed}.csv"
            write_csv(path, ds)
            code, out = run(capsys, [
                "pipeline", "--input", str(path), "--outcome-col", "y",
                "--restarts", "1", "--permutations", "50", "--threads", "4"])
            assert code == 0
            p = json.loads(out)["payload"]["p_value"]
            assert p > 0
            significant += p <= 0.05
        assert significant <= 5  # at most 10% false alarms at the 5% level

    def test_one_kernel_and_one_plan(self, capsys, monkeypatch, random_csv):
        # the permutation replicates rerun the search that the scan kept
        built = []
        kernel_init, restart_plan = scanner._ScanKernel.__init__, scanner._restart_plan

        def counted_init(kernel, *args):
            built.append("kernel")
            kernel_init(kernel, *args)

        def counted_plan(*args):
            built.append("plan")
            return restart_plan(*args)

        monkeypatch.setattr(scanner._ScanKernel, "__init__", counted_init)
        monkeypatch.setattr(scanner, "_restart_plan", counted_plan)
        code, _ = run(capsys, ["pipeline", "--input", random_csv[0], "--outcome-col", "y",
                               "--restarts", "3", "--permutations", "9"])
        assert code == 0
        assert built == ["kernel", "plan"]

    def test_payload_is_deterministic_across_processes_and_threads(
            self, tmp_path, capsys):
        ds = random_dataset(7, n=300, n_features=5)
        path = tmp_path / "random.csv"
        write_csv(path, ds)
        argv = ["pipeline", "--input", str(path), "--outcome-col", "y",
                "--restarts", "3", "--permutations", "9"]

        def payload_block(out):
            return canonical_json(json.loads(out)["payload"])

        blocks = []
        for _ in range(2):
            code, out = run(capsys, argv)
            assert code == 0
            blocks.append(payload_block(out))
        for _ in range(2):
            blocks.append(payload_block(run_module(argv)))
        for threads in ("1", "4"):
            code, out = run(capsys, argv + ["--threads", threads])
            assert code == 0
            blocks.append(payload_block(out))
        assert all(block == blocks[0] for block in blocks)


class TestCompareCommand:

    def test_matrix(self, capsys, random_csv, tmp_path):
        path, _ = random_csv
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, ["rank", "--input", path, "--outcome-col", "y", "--out", a])
        run(capsys, ["rank", "--input", path, "--outcome-col", "y",
                     "--method", "mi", "--out", b])
        code, out = run(capsys, ["compare", "--rankings", a, "--rankings", b])
        assert code == 0
        payload = json.loads(out)["payload"]
        matrix = payload["matrix"]
        assert matrix[0][0] == matrix[1][1] == 1.0
        assert matrix[0][1] == matrix[1][0]
        assert 0 < matrix[0][1] <= 1.0
        assert set(payload["methods"]) == {"safs", "mutual-information"}
        code, out = run(capsys, ["compare", "--rankings", a, "--rankings", b,
                                 "--format", "text"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert [row[0] for row in rows] == payload["methods"]
        assert rows[0][1:] == [f"{v:.4f}" for v in matrix[0]]

    def test_repeated_input_keeps_its_row(self, capsys, random_csv, tmp_path):
        path, _ = random_csv
        a = str(tmp_path / "a.json")
        run(capsys, ["rank", "--input", path, "--outcome-col", "y", "--out", a])
        code, out = run(capsys, ["compare"] + ["--rankings", a] * 3)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["methods"] == ["safs", f"safs:{a}", f"safs:{a}#3"]
        assert payload["matrix"] == [[1.0] * 3] * 3

    def test_needs_two_files(self, capsys, random_csv, tmp_path):
        path, _ = random_csv
        a = str(tmp_path / "a.json")
        run(capsys, ["rank", "--input", path, "--outcome-col", "y", "--out", a])
        code, _ = run(capsys, ["compare", "--rankings", a])
        assert code == 1

    def test_rejects_non_ranking_artifact(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        head = b'{"schema": "safs/1", "kind": "ranking", "payload": '
        for data in [b'{"schema": "other", "kind": "ranking"}', b"[1, 2]",
                     b'{"schema": "safs/1", "kind": "ranking"}', b"\xff\xfe",
                     head + b'{"method": ["safs"], "entries": [{"feature": "a"}]}}',
                     head + b'{"method": "safs", "entries": [{"feature": {"a": 1}}]}}',
                     head + b'{"method": "safs", "entries": []}}']:
            bogus.write_bytes(data)
            code = main(["compare", "--rankings", str(bogus), "--rankings", str(bogus)])
            assert code == 2, data
            assert str(bogus) in capsys.readouterr().err


class TestSweepCommand:

    def test_json_lines(self, capsys, planted_csv):
        path, ds = planted_csv
        code, out = run(capsys, [
            "sweep", "--input", path, "--outcome-col", "y",
            "--restarts", "3", "--k", "2,4,6,8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        docs = [json.loads(line) for line in lines]
        assert [d["payload"]["k"] for d in docs] == [2, 4, 6, 8]
        assert all(d["kind"] == "sweep-entry" for d in docs)
        assert docs[-1]["payload"]["jaccard_vs_full"] == 1.0
        assert all(d["volatile"]["scan_seconds"] > 0 for d in docs)

    def test_payload_is_deterministic_across_processes(self, tmp_path, capsys):
        ds = random_dataset(7, n=300, n_features=5)
        path = tmp_path / "random.csv"
        write_csv(path, ds)
        argv = ["sweep", "--input", str(path), "--outcome-col", "y",
                "--restarts", "3", "--k", "2,3,5", "--permutations", "9"]

        def payload_lines(out):
            return [canonical_json(json.loads(line)["payload"]) for line in out.splitlines()]

        runs = []
        for _ in range(2):
            code, out = run(capsys, argv)
            assert code == 0
            runs.append(payload_lines(out))
        runs.append(payload_lines(run_module(argv)))
        assert len(runs[0]) == 3
        assert all(lines == runs[0] for lines in runs)
        assert all(json.loads(line)["p_value"] is not None for line in runs[0])

    def test_bad_k_spec(self, capsys, planted_csv):
        path, _ = planted_csv
        code, _ = run(capsys, ["sweep", "--input", path, "--outcome-col", "y",
                               "--k", "2,x"])
        assert code == 1

    def test_empty_k_list(self, capsys, planted_csv):
        path, _ = planted_csv
        code = main(["sweep", "--input", path, "--outcome-col", "y", "--k", ","])
        assert code == 2
        assert "data error: no K value was given" in capsys.readouterr().err

    def test_format_is_not_an_option(self, capsys, planted_csv):
        path, _ = planted_csv
        code, _ = run(capsys, ["sweep", "--input", path, "--outcome-col", "y",
                               "--k", "2", "--format", "text"])
        assert code == 1


class TestSearchLimits:

    def test_fallback_starts_in_volatile(self, capsys, tmp_path):
        # 2 records over 60 binary features, about half of them not constant:
        # a random start keeps a record with odds near (2/3)^30, so every
        # random start falls back
        path = tmp_path / "sparse.csv"
        write_csv(path, random_dataset(0, n=2, n_features=60, max_card=2))
        base = ["--input", str(path), "--outcome-col", "y", "--restarts", "4"]
        docs = [json.loads(run(capsys, ["scan", *base])[1]),
                json.loads(run(capsys, ["pipeline", *base, "--permutations", "2"])[1]),
                json.loads(run(capsys, ["sweep", *base, "--k", "60"])[1])]
        for doc in docs:
            assert doc["volatile"]["fallback_starts"] == 3
            assert doc["volatile"]["truncated_ascents"] == 0
            assert not {"fallback_starts", "truncated_ascents"} & set(doc["payload"])


class TestExitCodes:

    def test_help(self, capsys):
        code, out = run(capsys, ["--help"])
        assert code == 0
        assert "pipeline" in out

    def test_unknown_option(self, capsys, random_csv):
        path, _ = random_csv
        code, _ = run(capsys, ["rank", "--input", path, "--outcome-col", "y",
                               "--no-such-flag"])
        assert code == 1

    def test_missing_outcome_column(self, capsys, random_csv):
        path, _ = random_csv
        code, _ = run(capsys, ["rank", "--input", path, "--outcome-col", "nope"])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["rank", "--input", "/no/such/file.csv",
                               "--outcome-col", "y"])
        assert code == 2

    @pytest.mark.parametrize("command", [["rank"], ["rank", "--method", "mi"], ["scan"],
                                         ["pipeline", "--permutations", "2"],
                                         ["sweep", "--k", "1"]])
    def test_constant_outcome(self, capsys, tmp_path, command):
        path = tmp_path / "positive.csv"
        ds = random_dataset(2, n=500, n_features=4, max_card=8)
        write_csv(path, make_dataset([s.cardinality for s in ds.schemas], ds.codes,
                                     [1] * ds.n_records))
        code = main([*command, "--input", str(path), "--outcome-col", "y"])
        assert code == 2
        assert "outcome is degenerate" in capsys.readouterr().err

    def test_success(self, capsys, random_csv):
        path, _ = random_csv
        code, _ = run(capsys, ["rank", "--input", path, "--outcome-col", "y"])
        assert code == 0


class TestBadCounts:

    def test_zero_bins_on_text_only_csv(self, capsys, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("c,y\nA,1\nB,0\nA,0\n")
        code, _ = run(capsys, ["rank", "--input", str(path), "--outcome-col", "y",
                               "--bins", "0"])
        assert code == 2

    def test_negative_permutations_in_sweep(self, capsys, random_csv):
        path, _ = random_csv
        code, _ = run(capsys, ["sweep", "--input", path, "--outcome-col", "y",
                               "--restarts", "1", "--k", "1,2", "--permutations", "-5"])
        assert code == 2

    def test_negative_threads_in_pipeline(self, capsys, random_csv):
        path, _ = random_csv
        code, _ = run(capsys, ["pipeline", "--input", path, "--outcome-col", "y",
                               "--restarts", "1", "--permutations", "5",
                               "--threads", "-3"])
        assert code == 2

    @pytest.mark.parametrize("command", [["scan"], ["pipeline", "--permutations", "2"],
                                         ["sweep", "--k", "1,2"]])
    def test_negative_seed(self, capsys, random_csv, command):
        path, _ = random_csv
        code = main([*command, "--input", path, "--outcome-col", "y",
                     "--restarts", "1", "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err


class TestEnvVars:

    def test_bins_from_environment(self, capsys, tmp_path, monkeypatch):
        import numpy as np
        rng = np.random.default_rng(0)
        rows = ["x,y"] + [f"{rng.random():.6f},{int(rng.random() < 0.4)}"
                          for _ in range(200)]
        path = tmp_path / "numeric.csv"
        path.write_text("\n".join(rows) + "\n")
        base = ["rank", "--input", str(path), "--outcome-col", "y"]
        _, default_out = run(capsys, base)
        _, explicit_out = run(capsys, base + ["--bins", "3"])
        monkeypatch.setenv("SAFS_RANK_BINS", "3")
        code, env_out = run(capsys, base)
        assert code == 0
        assert json.loads(env_out)["payload"] == json.loads(explicit_out)["payload"]
        assert json.loads(env_out)["payload"] != json.loads(default_out)["payload"]
