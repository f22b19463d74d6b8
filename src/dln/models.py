"""The two trainable parameterizations: wide and compressed linear networks.

A wide network is a chain of full-size square layers (rectangular targets get
rectangular outer layers around square max-dimension intermediates). A
compressed network pinches the chain through a width-``r_hat`` bottleneck:
an r_hat x d_in first layer, square r_hat intermediates, and a d_out x r_hat
last layer, so the end-to-end product is still d_out x d_in.

Initialization is either scale-eps (semi-)orthogonal or uniform for the wide
network, and spectral for the compressed one: outer layers take the leading
singular vectors of a surrogate matrix, intermediates start at eps * I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    Matrix,
    chain_product,
    load_matrix_bin,
    sample_orthogonal,
    sample_semi_orthogonal,
    save_matrix_bin,
    truncated_svd,
)
from .operators import SensingOperator

INIT_MODES = ("orthogonal", "uniform", "spectral")


@dataclass(frozen=True)
class InitSpec:
    """Initialization scale and mode; spectral mode carries its surrogate."""

    scale: float
    mode: str = "orthogonal"
    surrogate: Matrix | None = None

    def __post_init__(self):
        if not self.scale > 0:
            raise ContractViolationError("init scale must be positive")
        if self.mode not in INIT_MODES:
            raise ContractViolationError(f"unknown init mode {self.mode!r}")
        if self.mode == "spectral" and self.surrogate is None:
            raise ContractViolationError("spectral init requires a surrogate matrix")


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
class WideDLN:
    """Full-width network; ``layers[0]`` is the first factor applied."""

    layers: list[Matrix]

    def __post_init__(self):
        _check_chain(self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def d_in(self) -> int:
        return self.layers[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.layers[-1].shape[0]


@dataclass
class CompressedDLN:
    """Bottleneck network: w_last @ mids @ w_first, bottleneck width r_hat."""

    w_first: Matrix          # r_hat x d_in
    mids: list[Matrix]       # each r_hat x r_hat; empty for depth 2
    w_last: Matrix           # d_out x r_hat

    def __post_init__(self):
        r = self.w_first.shape[0]
        if self.w_last.shape[1] != r or any(m.shape != (r, r) for m in self.mids):
            raise ContractViolationError("bottleneck widths are inconsistent")
        _check_chain(self.layers)

    @property
    def layers(self) -> list[Matrix]:
        return [self.w_first, *self.mids, self.w_last]

    @property
    def depth(self) -> int:
        return len(self.mids) + 2

    @property
    def r_hat(self) -> int:
        return self.w_first.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_first.shape[1]

    @property
    def d_out(self) -> int:
        return self.w_last.shape[0]


Model = WideDLN | CompressedDLN


def end_to_end(model: Model) -> Matrix:
    """End-to-end product, multiplied in a fixed left-to-right order."""
    return chain_product(model.layers)


def param_count(model: Model) -> int:
    return sum(w.size for w in model.layers)


def init_wide(d: int, L: int, spec: InitSpec, rng: np.random.Generator,
              d_out: int | None = None) -> WideDLN:
    """Wide network at scale ``spec.scale`` per factor.

    Orthogonal mode draws an independent Haar (semi-)orthogonal factor per
    layer, so consecutive layers are exactly balanced at initialization.
    Square targets give d x d layers; rectangular ones keep square
    intermediates of the larger dimension with rectangular outer layers.
    """
    if spec.mode == "spectral":
        raise ContractViolationError("spectral init is only defined for the compressed model")
    if L < 2:
        raise ContractViolationError("need depth >= 2")
    d_out = d if d_out is None else d_out
    inner = max(d, d_out)
    shapes = [(inner, d)] + [(inner, inner)] * (L - 2) + [(d_out, inner)]
    eps = spec.scale
    layers: list[Matrix] = []
    for rows, cols in shapes:
        if spec.mode == "orthogonal":
            q = sample_orthogonal(rows, rng) if rows == cols else sample_semi_orthogonal(rows, cols, rng)
            layers.append(eps * q)
        else:
            layers.append(rng.uniform(-eps, eps, size=(rows, cols)))
    return WideDLN(layers)


def init_compressed(d: int, L: int, r_hat: int, spec: InitSpec,
                    d_out: int | None = None) -> CompressedDLN:
    """Spectrally initialized compressed network.

    Outer layers are the scale-eps leading singular vectors of the surrogate
    (w_last = eps * U_rhat, w_first = eps * V_rhat^T); intermediates are
    eps * I, so every end-to-end singular value starts at eps^depth.
    """
    if spec.mode != "spectral":
        raise ContractViolationError("compressed model requires spectral init")
    if L < 2:
        raise ContractViolationError("need depth >= 2")
    d_out = d if d_out is None else d_out
    surr = spec.surrogate
    if surr.shape != (d_out, d):
        raise ContractViolationError(
            f"surrogate shape {surr.shape} does not match target {(d_out, d)}"
        )
    if not 1 <= r_hat <= min(d, d_out):
        raise ContractViolationError(f"r_hat {r_hat} out of range 1..{min(d, d_out)}")
    f = truncated_svd(surr, r_hat)
    eps = spec.scale
    return CompressedDLN(
        w_first=eps * f.V.T.copy(),
        mids=[eps * np.eye(r_hat) for _ in range(L - 2)],
        w_last=eps * f.U.copy(),
    )


def loss(model: Model, op: SensingOperator, y: np.ndarray) -> float:
    """Half squared residual of the measurements, unnormalized."""
    r = op.apply(end_to_end(model)) - y
    return 0.5 * float(r @ r)


def chain_gradients(layers: list[Matrix], op: SensingOperator, y: np.ndarray,
                    work: list[Matrix | None] | None = None) -> tuple[list[Matrix], float]:
    """Per-layer gradients of the half squared residual, plus the loss.

    Reverse-mode backprop (the delta recursion). The forward pass keeps the
    prefix products P_l = W_{l-1} ... W_0. The backward pass starts from
    delta = adjoint(apply(product) - y); for l = n-1 down to 1 it takes the
    gradient of layer l as delta @ P_l^T and then sets delta = W_l^T @ delta,
    so the last delta is the gradient of the first layer. A single-layer
    chain's gradient is the back-projected residual itself.

    ``work`` lets a training loop keep the full-size intermediates from one
    call to the next. It is a list of n + 1 slots for an n-layer chain: slot
    l (1 <= l < n) receives the forward product W_l ... W_0, slot n the
    back-projected residual, and slot 0 is unused (the first product is
    ``layers[0]`` itself). A ``None`` slot is allocated and stored in the
    list; a filled slot is written in place, so pass the same list, unchanged,
    for every step of one chain (``[None] * (n + 1)`` to start). The returned
    gradients never alias a slot.
    """
    n = len(layers)
    if work is None:
        work = [None] * (n + 1)
    elif len(work) != n + 1:
        raise ContractViolationError(f"work needs {n + 1} slots for {n} layers, got {len(work)}")
    prefixes: list[Matrix | None] = [None] * n
    prod = layers[0]
    for l in range(1, n):
        prefixes[l] = prod
        prod = work[l] = np.matmul(layers[l], prod, out=work[l])
    res = op.apply(prod) - y
    lo = 0.5 * float(res @ res)
    delta = work[n] = op.adjoint(res, out=work[n])
    grads = []
    for l in range(n - 1, 0, -1):
        grads.append(delta @ prefixes[l].T)
        delta = layers[l].T @ delta
    grads.append(delta if n > 1 else delta.copy())
    return grads[::-1], lo


def gradients(model: Model, op: SensingOperator, y: np.ndarray) -> list[Matrix]:
    """Analytic gradients for every layer, in layer order."""
    return chain_gradients(model.layers, op, y)[0]


def save_model(dirpath: str | Path, model: Model, extra: dict | None = None) -> None:
    """Checkpoint: per-layer binary matrices plus a small manifest."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    layers = model.layers
    for i, w in enumerate(layers):
        save_matrix_bin(dirpath / f"layer_{i:02d}.dlnm", w)
    manifest = {
        "kind": "compressed" if isinstance(model, CompressedDLN) else "wide",
        "depth": model.depth,
        "d_in": model.d_in,
        "d_out": model.d_out,
    }
    if isinstance(model, CompressedDLN):
        manifest["r_hat"] = model.r_hat
    manifest.update(extra or {})
    (dirpath / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_model(dirpath: str | Path) -> Model:
    dirpath = Path(dirpath)
    manifest = json.loads((dirpath / "manifest.json").read_text())
    layers = [
        load_matrix_bin(dirpath / f"layer_{i:02d}.dlnm")
        for i in range(manifest["depth"])
    ]
    if manifest["kind"] == "compressed":
        return CompressedDLN(w_first=layers[0], mids=layers[1:-1], w_last=layers[-1])
    return WideDLN(layers)
