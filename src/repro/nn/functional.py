"""Low-level tensor operations shared by the NN layers.

All activations use the NCHW layout.  FP32 convolutions (inference,
training and quantization calibration) run through an im2col/col2im pair.
The integer execution path quantizes a layer's input first and unfolds the
padded codes with :func:`unfold`; its operand matrix is the quantized
im2col matrix, element for element, at a ninth of the quantization work for
3x3 kernels.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapses to {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into convolution columns.

    Returns:
        ``(columns, out_h, out_w)`` where ``columns`` has shape
        ``(N * out_h * out_w, C * kernel_h * kernel_w)``: one row per output
        position, one column per weight element.  Row-major ordering is
        ``(n, oh, ow)``.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {x.shape}")
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    columns = np.empty(
        (batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype
    )
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            columns[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    # (N, C, kh, kw, oh, ow) -> (N, oh, ow, C, kh, kw) -> (N*oh*ow, C*kh*kw)
    columns = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return columns, out_h, out_w


def unfold(
    padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Unfold a padded (N, C, H, W) array into convolution columns.

    Same layout as :func:`im2col` with ``padding=0`` (padding is the
    caller's, with whatever fill value it needs), built from a strided
    window view with a single copy.
    """
    batch, channels, height, width = padded.shape
    out_h = conv_output_size(height, kernel_h, stride, 0)
    out_w = conv_output_size(width, kernel_w, stride, 0)
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(2, 3))
    # (N, C, oh, ow, kh, kw) -> (N, oh, ow, C, kh, kw) -> (N*oh*ow, C*kh*kw)
    columns = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return columns, out_h, out_w


def col2im(
    columns: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an input-shaped gradient."""
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    columns = columns.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    columns = columns.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=columns.dtype,
    )
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += columns[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range for the given number of classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
