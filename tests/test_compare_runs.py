"""scripts/compare_runs.py: a run and its manifest re-run compare identical,
for a completion run and for a ratings run, and an edited, moved or missing
file is flagged."""

import importlib.util
import shutil
from pathlib import Path

import pytest

from dln.cli import main
from dln.data import gen_ratings_standin
from dln.linalg import load_matrix_bin, save_matrix_bin

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

TINY = ["complete", "--d", "10", "--r", "2", "--rhat", "3", "--T", "20", "--log-every", "5",
        "--p", "0.6", "--sigma", "0.1,0.05", "--altmin-iters", "3", "--seeds", "0"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A tiny completion run with checkpoints and tracked spectra, and its
    ``--manifest`` re-run."""
    root = tmp_path_factory.mktemp("runs")
    (root / "run.cfg").write_text("save_models = true\ntrack_spectral = 2\n")
    assert main(TINY + ["--config", str(root / "run.cfg"), "--out", str(root / "a")]) == 0
    assert main(["complete", "--manifest", str(root / "a" / "manifest.json"),
                 "--out", str(root / "b")]) == 0
    return root


@pytest.fixture(scope="module")
def ratings_runs(tmp_path_factory):
    """A tiny ratings run of every model on a stand-in file, with checkpoints,
    and its ``--manifest`` re-run."""
    root = tmp_path_factory.mktemp("ratings")
    n_users, n_items = gen_ratings_standin(root / "u.data", n_users=30, n_items=40,
                                           n_ratings=600, rank=3)
    (root / "run.cfg").write_text(f"movielens_shape = {n_users},{n_items}\n"
                                  "save_models = true\n")
    assert main(["movielens", "--data", str(root / "u.data"), "--model", "all", "--rhat", "3",
                 "--T", "20", "--log-every", "5", "--altmin-iters", "3",
                 "--config", str(root / "run.cfg"), "--out", str(root / "a")]) == 0
    assert main(["movielens", "--manifest", str(root / "a" / "manifest.json"),
                 "--out", str(root / "b")]) == 0
    return root


def verdicts(capsys, a, b):
    rc = compare_runs.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    return rc, dict(line.rsplit(": ", 1) for line in lines[:-1]), lines[-1]


def test_rerun_compares_identical(runs, capsys):
    rc, seen, summary = verdicts(capsys, runs / "a", runs / "b")
    assert rc == 0
    assert set(seen.values()) == {"identical"}
    names = {Path(rel).name for rel in seen}
    assert {"trajectory.csv", "diagnostics.csv", "incremental.json", "status.json", "mask.csv",
            "train_values.csv", "layer_00.dlnm", "manifest.json"} <= names
    # the run manifest and timing files are not deterministic and are left out
    assert "manifest.json" not in seen and not any(n == "timing.csv" for n in names)
    assert summary == f"{len(seen)} files: {len(seen)} identical, 0 not"


def test_ratings_rerun_compares_identical(ratings_runs, capsys):
    rc, seen, summary = verdicts(capsys, ratings_runs / "a", ratings_runs / "b")
    assert rc == 0
    assert set(seen.values()) == {"identical"}
    # each model's held-out rows are among the files compared
    assert {f"{m}/seed_0/diagnostics.csv" for m in ("wide", "compressed", "altmin")} <= set(seen)
    for model in ("wide", "compressed"):
        for name in ("trajectory.csv", "mask.csv", "train_values.csv", "checkpoint/layer_00.dlnm"):
            assert f"{model}/seed_0/{name}" in seen
    assert summary == f"{len(seen)} files: {len(seen)} identical, 0 not"


def test_edited_value_is_flagged(runs, capsys, tmp_path):
    edited = tmp_path / "c"
    shutil.copytree(runs / "b", edited)
    path = edited / "compressed" / "seed_0" / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    rc, seen, _ = verdicts(capsys, runs / "a", edited)
    assert rc == 1
    verdict = seen.pop("compressed/seed_0/trajectory.csv")
    assert verdict.startswith("max rel dev train_loss ")
    assert float(verdict.split()[-1]) == pytest.approx(1e-9, rel=1e-3)
    assert set(seen.values()) == {"identical"}


def test_moved_layer_is_flagged(runs, capsys, tmp_path):
    moved = tmp_path / "c"
    shutil.copytree(runs / "b", moved)
    path = moved / "compressed" / "seed_0" / "checkpoint" / "layer_00.dlnm"
    w = load_matrix_bin(path)
    w[0, 0] *= 1 + 1e-12
    save_matrix_bin(path, w)
    rc, seen, _ = verdicts(capsys, runs / "a", moved)
    assert rc == 1
    verdict = seen.pop("compressed/seed_0/checkpoint/layer_00.dlnm")
    assert verdict.startswith("max rel dev values ")
    assert float(verdict.split()[-1]) == pytest.approx(1e-12, rel=1e-2)
    assert set(seen.values()) == {"identical"}


def test_missing_file_is_flagged(runs, capsys, tmp_path):
    cut = tmp_path / "c"
    shutil.copytree(runs / "b", cut)
    (cut / "wide" / "seed_0" / "checkpoint" / "layer_01.dlnm").unlink()
    rc, seen, _ = verdicts(capsys, runs / "a", cut)
    assert rc == 1
    assert seen.pop("wide/seed_0/checkpoint/layer_01.dlnm") == "missing in B"
    assert set(seen.values()) == {"identical"}


def test_layout_difference_names_the_odd_column(runs, capsys, tmp_path):
    edited = tmp_path / "c"
    shutil.copytree(runs / "b", edited)
    status = edited / "status.json"
    status.write_text(status.read_text().replace("{", '{"compressed/seed_0/oracle": "pass",', 1))
    path = edited / "compressed" / "seed_0" / "trajectory.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    path.write_text("\n".join(",".join(line.split(",")[:-1]) for line in lines) + "\n")
    path = edited / "wide" / "seed_0" / "trajectory.csv"
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:-1]) + "\n")
    rc, seen, _ = verdicts(capsys, runs / "a", edited)
    assert rc == 1
    assert seen.pop("status.json") == "differs in layout (compressed/seed_0/oracle only in B)"
    assert seen.pop("compressed/seed_0/trajectory.csv") == (
        f"differs in layout ({header[-1]} only in A)")
    # the same columns in fewer rows: only the counts tell them apart
    n = len(header)
    assert seen.pop("wide/seed_0/trajectory.csv") == (
        f"differs in layout ({n * (len(rows) - 1)} against {n * (len(rows) - 2)} cells)")
    assert set(seen.values()) == {"identical"}


def test_not_a_directory_exits_two(tmp_path, capsys):
    assert compare_runs.main([str(tmp_path), str(tmp_path / "absent")]) == 2
    assert compare_runs.main([str(tmp_path), str(tmp_path)]) == 2  # nothing to compare
