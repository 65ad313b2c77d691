"""Reference analog engine: the per-kernel-offset loop im2col and conv.

:mod:`repro.nn.layers` unfolds patches with a zero-copy window view and runs
:class:`~repro.nn.layers.Conv2D` channels-last.  The loop formulation it
replaced is kept here as the oracle it is checked against: bit-identical
columns and fold-backs, and convolutions equal up to float summation order.

:func:`loop_engine` swaps the oracle into :mod:`repro.nn.layers` for the
duration of a ``with`` block -- the module's ``im2col``/``col2im`` (used by
pooling) and ``Conv2D.forward``/``backward`` -- so whole layers, segments and
evaluators can be run on the reference engine and compared.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Tuple

import numpy as np

from repro.nn import layers as nn_layers
from repro.nn.layers import Conv2D, _check_fold_geometry, _unfold_geometry


def im2col_loop(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Reference im2col: per-kernel-offset strided copies into a 6-D buffer."""
    n, c, h, w = x.shape
    out_h, out_w = _unfold_geometry(h, w, kernel_h, kernel_w, stride, padding)
    img = np.pad(
        x, [(0, 0), (0, 0), (padding, padding), (padding, padding)], mode="constant"
    )
    col = np.zeros((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            col[:, :, ky, kx, :, :] = img[:, :, ky:y_max:stride, kx:x_max:stride]
    columns = col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return columns, out_h, out_w


def col2im_loop(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Reference fold-back with a stride-slack buffer (original formulation)."""
    n, c, h, w = input_shape
    out_h, out_w = _unfold_geometry(h, w, kernel_h, kernel_w, stride, padding)
    _check_fold_geometry(kernel_h, kernel_w, stride)
    col = columns.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    img = np.zeros(
        (n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1),
        dtype=columns.dtype,
    )
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += col[:, :, ky, kx, :, :]
    return img[:, :, padding:h + padding, padding:w + padding]


def conv2d_forward_loop(conv: Conv2D, x: np.ndarray, training: bool = False) -> np.ndarray:
    """Reference channels-first im2col convolution forward."""
    columns, out_h, out_w = im2col_loop(
        x, conv.kernel_size, conv.kernel_size, conv.stride, conv.padding
    )
    weight_matrix = conv.params["weight"].reshape(conv.out_channels, -1)
    out = columns @ weight_matrix.T
    if conv.use_bias:
        out = out + conv.params["bias"]
    out = out.reshape(x.shape[0], out_h, out_w, conv.out_channels)
    out = out.transpose(0, 3, 1, 2)
    conv._cache = (columns, x.shape) if training else None
    return out


def conv2d_backward_loop(conv: Conv2D, grad_output: np.ndarray) -> np.ndarray:
    """Reference backward of :func:`conv2d_forward_loop`."""
    if conv._cache is None:
        raise RuntimeError(f"{conv.name}: backward called before forward(training=True)")
    columns, input_shape = conv._cache
    grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    if conv.use_bias:
        conv.grads["bias"] = grad_matrix.sum(axis=0)
    k = conv.kernel_size
    weight_matrix = conv.params["weight"].reshape(conv.out_channels, -1)
    conv.grads["weight"] = (grad_matrix.T @ columns).reshape(
        conv.params["weight"].shape
    )
    grad_columns = grad_matrix @ weight_matrix
    return col2im_loop(
        grad_columns, input_shape, k, k, conv.stride, conv.padding
    )


@contextlib.contextmanager
def loop_engine() -> Iterator[None]:
    """Run :mod:`repro.nn.layers` on the reference loop engine inside the block.

    Not thread-safe: the patch is module-wide for the block's duration.
    """
    saved = (nn_layers.im2col, nn_layers.col2im, Conv2D.forward, Conv2D.backward)
    nn_layers.im2col = im2col_loop
    nn_layers.col2im = col2im_loop
    Conv2D.forward = conv2d_forward_loop
    Conv2D.backward = conv2d_backward_loop
    try:
        yield
    finally:
        nn_layers.im2col, nn_layers.col2im, Conv2D.forward, Conv2D.backward = saved
