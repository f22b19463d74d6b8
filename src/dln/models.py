"""One trainable network type, :class:`DLN`, and its two initializations.

A network is a chain of matrices, ``layers[0]`` applied first. The wide
network has full-size layers (rectangular targets get rectangular outer layers
around square max-dimension intermediates). The compressed network is the same
chain with its intermediate widths narrowed to ``r_hat`` (an r_hat x d_in first
layer, square r_hat intermediates, a d_out x r_hat last layer), so both
products are d_out x d_in and the same gradient descent trains both.

Initialization is either scale-eps (semi-)orthogonal or uniform for the wide
network, and spectral for the compressed one: outer layers take the leading
singular vectors of a surrogate matrix, intermediates start at eps * I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    Matrix,
    chain_product,
    load_matrix_bin,
    sample_semi_orthogonal,
    save_matrix_bin,
    truncated_svd,
)
from .operators import SensingOperator

# the wide network's init modes; the compressed network's init is always spectral
INIT_MODES = ("orthogonal", "uniform")
_LAYER_FILE = "layer_{:02d}.dlnm"  # a checkpoint's layer i


def _check_init(L: int, eps: float) -> None:
    if L < 2:
        raise ContractViolationError("need depth >= 2")
    if not eps > 0:
        raise ContractViolationError("init scale must be positive")


def _check_chain(layers: list[Matrix]) -> None:
    if len(layers) < 2:
        raise ContractViolationError("need at least 2 layers")
    for k in range(1, len(layers)):
        if layers[k].shape[1] != layers[k - 1].shape[0]:
            raise ContractViolationError(
                f"layer {k} shape {layers[k].shape} does not compose with "
                f"layer {k - 1} shape {layers[k - 1].shape}"
            )


@dataclass
class DLN:
    """A layer chain whose consecutive shapes compose; ``layers[0]`` is the
    first factor applied."""

    layers: list[Matrix]

    def __post_init__(self):
        _check_chain(self.layers)


def param_count(model: DLN) -> int:
    return sum(w.size for w in model.layers)


def init_wide(d: int, L: int, eps: float, mode: str, rng: np.random.Generator,
              d_out: int | None = None) -> DLN:
    """Wide network at scale ``eps`` per factor, ``mode`` one of INIT_MODES.

    Orthogonal mode draws an independent Haar (semi-)orthogonal factor per
    layer, so consecutive layers are exactly balanced at initialization.
    Square targets give d x d layers; rectangular ones keep square
    intermediates of the larger dimension with rectangular outer layers.
    """
    _check_init(L, eps)
    if mode not in INIT_MODES:
        raise ContractViolationError(f"unknown init mode {mode!r}")
    d_out = d if d_out is None else d_out
    inner = max(d, d_out)
    shapes = [(inner, d)] + [(inner, inner)] * (L - 2) + [(d_out, inner)]
    layers: list[Matrix] = []
    for rows, cols in shapes:
        if mode == "orthogonal":
            q = sample_semi_orthogonal(rows, cols, rng)
            layers.append(eps * q)
        else:
            layers.append(rng.uniform(-eps, eps, size=(rows, cols)))
    return DLN(layers)


def init_compressed(surrogate: Matrix | Callable[[], Matrix], L: int, r_hat: int,
                    eps: float) -> DLN:
    """Compressed network spectrally initialized from a d_out x d_in surrogate.

    Outer layers are the scale-eps leading singular vectors of the surrogate
    (last layer eps * U_rhat, first eps * V_rhat^T); intermediates are
    eps * I, so every end-to-end singular value starts at eps^depth. The
    surrogate is the matrix or a function that builds it, passed to
    :func:`~dln.linalg.truncated_svd` as it is; a builder lets the init hold
    no copy of it while the Gram matrix is decomposed.
    """
    _check_init(L, eps)
    f = truncated_svd(surrogate, r_hat)
    mids = [eps * np.eye(r_hat) for _ in range(L - 2)]
    return DLN([eps * f.V.T.copy(), *mids, eps * f.U.copy()])


def loss(model: DLN, op: SensingOperator, y: np.ndarray) -> float:
    """Half squared residual of the measurements, unnormalized."""
    r = op.apply(chain_product(model.layers)) - y
    return 0.5 * float(r @ r)


def chain_gradients(layers: list[Matrix], op: SensingOperator,
                    y: np.ndarray) -> tuple[list[Matrix], float]:
    """Per-layer gradients of the half squared residual, plus the loss.

    Reverse-mode backprop (the delta recursion). The forward pass keeps the
    prefix products P_l = W_{l-1} ... W_0 up to R = P_{n-1}. The operator's
    head (:meth:`head_gradients`) then gives the loss, the last layer's
    gradient delta @ R^T and W_{n-1}^T @ delta, where delta =
    adjoint(apply(W_{n-1} @ R) - y). For l = n-2 down to 1 the recursion
    takes the gradient of layer l as delta @ P_l^T and then sets delta =
    W_l^T @ delta, so the last delta is the gradient of the first layer. A
    chain has at least two layers.

    Every product is allocated per call; the returned gradients share memory
    with no layer and with each other, so a caller may scale them in place.
    """
    n = len(layers)
    if n < 2:
        raise ContractViolationError("need at least 2 layers")
    prefixes: list[Matrix | None] = [None] * n
    prod = layers[0]
    for l in range(1, n - 1):
        prefixes[l] = prod
        prod = layers[l] @ prod
    lo, grad, delta = op.head_gradients(layers[-1], prod, y)
    grads = [grad]
    for l in range(n - 2, 0, -1):
        grads.append(delta @ prefixes[l].T)
        delta = layers[l].T @ delta
    grads.append(delta)
    return grads[::-1], lo


def save_model(dirpath: str | Path, model: DLN, extra: dict | None = None) -> None:
    """Checkpoint: per-layer binary matrices plus a small manifest of the
    chain's depth, d_in and d_out, and the caller's ``extra`` fields."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    layers = model.layers
    for i, w in enumerate(layers):
        save_matrix_bin(dirpath / _LAYER_FILE.format(i), w)
    manifest = {"depth": len(layers), "d_in": layers[0].shape[1], "d_out": layers[-1].shape[0],
                **(extra or {})}
    (dirpath / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_model(dirpath: str | Path) -> DLN:
    """The network of a checkpoint written by :func:`save_model`. A manifest
    that is not a JSON object or whose depth is missing, not an integer or past
    the layer files, and layer files whose shapes do not compose, are refused."""
    dirpath = Path(dirpath)
    try:
        manifest = json.loads((dirpath / "manifest.json").read_text())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise ContractViolationError(f"checkpoint {dirpath}: bad manifest: {exc}") from None
    depth = manifest.get("depth") if isinstance(manifest, dict) else None
    if type(depth) is not int or not all((dirpath / _LAYER_FILE.format(i)).exists()
                                         for i in range(depth)):
        raise ContractViolationError(f"checkpoint {dirpath}: no layer files for depth {depth!r}")
    return DLN([load_matrix_bin(dirpath / _LAYER_FILE.format(i)) for i in range(depth)])
