"""Each benchmark check rejects a wrong output; run with
``python3 -m pytest perfbench/test_checks.py``. All inputs are tiny."""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

SIGMA = (0.05, 0.03)


def write_dlnm(path: Path, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a, dtype="<f8")
    path.write_bytes(b"DLNM" + struct.pack("<QQ", *a.shape) + a.tobytes())


def write_checkpoint(dirpath: Path, layers) -> Path:
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, w in enumerate(layers):
        write_dlnm(dirpath / f"layer_{i:02d}.dlnm", w)
    return dirpath


def compressed_layers(trained: bool = True):
    """d=8, r_hat=3 chain: trained, its product has singular values SIGMA
    and 0; untrained, it is a spectral init at scale 1e-3."""
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    if trained:
        return [V.T, np.diag([*SIGMA, 0.0]), U]
    return [1e-3 * V.T, 1e-3 * np.eye(3), 1e-3 * U]


def trajectory(t, loss, rec=None):
    rec = np.full(len(t), np.nan) if rec is None else np.asarray(rec, dtype=float)
    return {"t": np.asarray(t), "train_loss": np.asarray(loss, dtype=float), "recovery_error": rec}


def test_dlnm_reader_matches_the_package_writer(tmp_path):
    from dln.linalg import save_matrix_bin

    a = np.arange(6.0).reshape(2, 3)
    save_matrix_bin(tmp_path / "a.dlnm", a)
    assert np.array_equal(checks.read_dlnm(tmp_path / "a.dlnm"), a)


@pytest.mark.parametrize("raw", [b"DLNX" + bytes(16), b"DLNM" + struct.pack("<QQ", 2, 2) + bytes(8)])
def test_dlnm_reader_rejects_bad_files(tmp_path, raw):
    (tmp_path / "bad.dlnm").write_bytes(raw)
    with pytest.raises(checks.CheckFailed):
        checks.read_dlnm(tmp_path / "bad.dlnm")


def test_spectrum_accepts_a_trained_checkpoint(tmp_path):
    layers = checks.read_checkpoint(write_checkpoint(tmp_path, compressed_layers()))
    checks.check_spectrum(checks.end_to_end(layers), SIGMA)


def test_spectrum_rejects_an_untrained_checkpoint(tmp_path):
    layers = checks.read_checkpoint(write_checkpoint(tmp_path, compressed_layers(trained=False)))
    with pytest.raises(checks.CheckFailed, match="off the target"):
        checks.check_spectrum(checks.end_to_end(layers), SIGMA)


def test_spectrum_rejects_a_perturbed_layer(tmp_path):
    layers = compressed_layers()
    layers[1] = layers[1] * (1 + 1e-3)
    W = checks.end_to_end(checks.read_checkpoint(write_checkpoint(tmp_path, layers)))
    with pytest.raises(checks.CheckFailed, match="off the target"):
        checks.check_spectrum(W, SIGMA)


def test_spectrum_rejects_a_trailing_value():
    layers = compressed_layers()
    layers[1] = np.diag([*SIGMA, 1e-4])
    with pytest.raises(checks.CheckFailed, match="not near zero"):
        checks.check_spectrum(checks.end_to_end(layers), SIGMA)


def test_dominance_and_loss_checks():
    wide = trajectory([0, 25, 50], [1.0, 0.6, 0.5], [1.0, 0.8, 0.7])
    comp = trajectory([0, 25, 50], [1.0, 0.1, 0.0], [0.999, 0.1, 1e-8])
    checks.check_dominance(comp, wide)
    checks.check_loss_fell(wide)
    with pytest.raises(checks.CheckFailed, match="t=25"):
        checks.check_dominance(trajectory([0, 25, 50], [1, 1, 1], [0.9, 0.81, 0.1]), wide)
    with pytest.raises(checks.CheckFailed, match="different iterates"):
        checks.check_dominance(trajectory([0, 20, 50], [1, 1, 1], [0.9, 0.1, 0.1]), wide)
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_loss_fell(trajectory([0, 25], [1.0, 1.0]))


@pytest.fixture
def ratings(tmp_path):
    """A 6x7 ratings file, a mask of half its entries and a close fit W."""
    rng = np.random.default_rng(1)
    cells = np.sort(rng.choice(42, size=30, replace=False))
    u, i = np.divmod(cells, 7)
    r = rng.integers(1, 6, size=30)
    lines = [f"{a + 1}\t{b + 1}\t{c}\t{880000000 + k}" for k, (a, b, c) in enumerate(zip(u, i, r))]
    (tmp_path / "u.data").write_text("\n".join(lines) + "\n")
    table = checks.read_ratings(tmp_path / "u.data", (6, 7))
    (tmp_path / "mask.csv").write_text("row,col\n" + "".join(f"{a},{b}\n" for a, b in zip(u[::2], i[::2])))
    rows, cols = checks.read_mask(tmp_path / "mask.csv")
    W = np.where(np.isnan(table), 3.0, table) + 0.1 * rng.standard_normal((6, 7))
    y, (hr, hc, hv) = checks.completion_split(table, rows, cols)
    loss = 0.5 * float(np.sum((W[rows, cols] - y) ** 2))
    return W, table, rows, cols, loss, checks.rmse(W[hr, hc], hv)


def test_completion_net_accepts_its_own_figures(ratings):
    W, table, rows, cols, loss, held = ratings
    checks.check_completion_net(W, table, rows, cols, trajectory([0, 10], [9.0, loss]), held)


def test_completion_net_rejects_a_train_loss_off_by_a_factor(ratings):
    W, table, rows, cols, loss, held = ratings
    with pytest.raises(checks.CheckFailed, match="train loss"):
        checks.check_completion_net(W, table, rows, cols, trajectory([0, 10], [9.0, loss * 1.001]), held)


def test_completion_net_rejects_a_wrong_holdout_rmse(ratings):
    W, table, rows, cols, loss, held = ratings
    with pytest.raises(checks.CheckFailed, match="held-out RMSE"):
        checks.check_completion_net(W, table, rows, cols, trajectory([0, 10], [9.0, loss]), held * 1.001)


def test_completion_net_rejects_an_untrained_model(ratings):
    _, table, rows, cols, _, _ = ratings
    W = np.full(table.shape, 1e-3)
    y, (hr, hc, hv) = checks.completion_split(table, rows, cols)
    loss = 0.5 * float(np.sum((W[rows, cols] - y) ** 2))
    with pytest.raises(checks.CheckFailed, match="half of predicting zero"):
        checks.check_completion_net(W, table, rows, cols, trajectory([0, 10], [loss, loss]),
                                    checks.rmse(W[hr, hc], hv))


def test_completion_split_rejects_a_mask_off_the_file(ratings):
    _, table, _, _, _, _ = ratings
    free = np.argwhere(np.isnan(table))[0]
    with pytest.raises(checks.CheckFailed, match="does not rate"):
        checks.completion_split(table, free[:1], free[1:])


def test_completion_baseline_checks(ratings):
    _, table, rows, cols, _, _ = ratings
    falling = trajectory([0, 1, 2], [9.0, 4.0, 4.0])
    checks.check_completion_baseline(table, rows, cols, falling, 0.0)
    with pytest.raises(checks.CheckFailed, match="rose"):
        checks.check_completion_baseline(table, rows, cols, trajectory([0, 1, 2], [9.0, 4.0, 4.1]), 0.0)
    with pytest.raises(checks.CheckFailed, match="global mean"):
        checks.check_completion_baseline(table, rows, cols, falling, 10.0)


def test_synthetic_workload_checks_a_real_run_and_a_tampered_one(tmp_path):
    """A small factorize recipe passes every check; perturbing its saved
    compressed layer fails the spectrum check."""
    from dln import experiments

    wl = workloads.Synthetic("factorize", (0,), SIGMA, d=12, r_hat=4)
    (cfg,) = wl.configs(experiments, tmp_path)
    assert experiments.run(cfg).ok
    for key in wl.keys():
        wl.check(tmp_path, key)
    layer = tmp_path / "compressed" / "seed_0" / "checkpoint" / "layer_01.dlnm"
    write_dlnm(layer, checks.read_dlnm(layer) * 1.01)
    with pytest.raises(checks.CheckFailed, match="off the target"):
        wl.check(tmp_path, "compressed/seed_0")
