"""Plot-data emission: STFT stage grids and CSP feature scatters.

Numbers go to CSV; renderings go to self-contained SVG built by hand, so no
plotting dependency is needed.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from . import data, dsp
from .errors import DataError, check_labels
from .model import CCSPNet


def _heat_color(v: float) -> str:
    """Map v in [0, 1] to a dark-blue -> yellow hex ramp."""
    v = float(np.clip(v, 0.0, 1.0))
    r = int(round(255 * v))
    g = int(round(220 * v))
    b = int(round(90 + 110 * (1 - v)))
    return f"#{r:02x}{g:02x}{b:02x}"


class SvgCanvas:
    """Tiny append-only SVG builder; emits well-formed XML."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts = []

    def rect(self, x, y, w, h, fill):
        self._parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}"/>')

    def circle(self, cx, cy, r, fill):
        self._parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def text(self, x, y, content):
        self._parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="12" '
            f'font-family="sans-serif">{escape(content)}</text>')

    def render(self) -> str:
        body = "\n".join(self._parts)
        return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n')


def stft_stage_grids(net: CCSPNet, trial: np.ndarray, channel: int) -> dict:
    """Time-frequency grids per pipeline stage for one trial and channel.

    Returns stage -> list of (magnitudes, freqs_hz, times_s), one entry per
    feature map ('raw' has a single entry).
    """
    trial = np.asarray(trial, dtype=np.float64)
    if trial.ndim != 2:
        raise DataError(f"expected one C x T trial, got shape {trial.shape}")
    if not 0 <= channel < trial.shape[0]:
        raise DataError(f"channel {channel} outside 0..{trial.shape[0] - 1}")
    fs = net.config.sample_rate_hz
    row = net._checked_batch(trial[None])[0, channel]
    window_len, hop = 32, 4   # samples per STFT window, and between windows
    grids = {"raw": [dsp.stft(row, window_len, hop, fs)]}
    for name, operator, offset in net.stage_operators():   # the channel's K maps
        grids[name] = [dsp.stft(m, window_len, hop, fs)
                       for m in np.matmul(row, operator) + offset]
    return grids


def write_stft_csv(path, grids: dict) -> None:
    """Long-form rows: stage, map, freq_hz, time_s, magnitude."""
    data.write_csv(path, ["stage", "map", "freq_hz", "time_s", "magnitude"],
                   ([stage, k, f"{f:g}", f"{t:g}", f"{mags[fi, ti]:.6g}"]
                    for stage, entries in grids.items()
                    for k, (mags, freqs, times) in enumerate(entries)
                    for fi, f in enumerate(freqs) for ti, t in enumerate(times)))


def render_stft_svg(path, grids: dict) -> None:
    """One heat-map panel per (stage, map), tiled top to bottom."""
    pad, label_h, cell = 10, 16, 4
    panels = [(stage, k, entry)
              for stage, entries in grids.items()
              for k, entry in enumerate(entries)]
    widths = [entry[0].shape[1] * cell for _, _, entry in panels]
    heights = [entry[0].shape[0] * cell for _, _, entry in panels]
    canvas = SvgCanvas(max(widths) + 2 * pad,
                       sum(h + label_h + pad for h in heights) + pad)
    y0 = pad
    for (stage, k, (mags, _, _)), h in zip(panels, heights):
        canvas.text(pad, y0 + 12, f"{stage} map {k}")
        y0 += label_h
        top = float(mags.max()) or 1.0
        for fi in range(mags.shape[0]):
            for ti in range(mags.shape[1]):
                canvas.rect(pad + ti * cell, y0 + (mags.shape[0] - 1 - fi) * cell,
                            cell, cell, _heat_color(mags[fi, ti] / top))
        y0 += h + pad
    data.write_text(path, canvas.render())


def csp_scatter_points(net: CCSPNet, trials, labels) -> list[dict]:
    """Per-branch 2-D CSP feature points for a finalized model.

    Coordinates are the first and last log-variance features of each branch
    (the most discriminative pair). Rows: branch, trial, x, y, label.
    """
    feats = net.frozen_features(trials).value
    labels = check_labels(labels, len(feats))
    return [{"branch": i + 1, "trial": n,
             "x": float(feats[n, i, 0]), "y": float(feats[n, i, -1]),
             "label": int(labels[n])}
            for i in range(feats.shape[1]) for n in range(feats.shape[0])]


def write_scatter_csv(path, rows) -> None:
    fields = ["branch", "trial", "x", "y", "label"]
    data.write_csv(path, fields, ([row[f] for f in fields] for row in rows))


def render_scatter_svg(path, rows) -> None:
    """One panel per branch, class 0 blue and class 1 orange."""
    pad, label_h, size = 10, 16, 220
    branches = sorted({r["branch"] for r in rows})
    canvas = SvgCanvas(size + 2 * pad, len(branches) * (size + label_h + pad) + pad)
    y0 = pad
    for b in branches:
        pts = [r for r in rows if r["branch"] == b]
        xs = np.array([r["x"] for r in pts])
        ys = np.array([r["y"] for r in pts])
        x_span = (xs.max() - xs.min()) or 1.0
        y_span = (ys.max() - ys.min()) or 1.0
        canvas.text(pad, y0 + 12, f"branch {b}")
        y0 += label_h
        canvas.rect(pad, y0, size, size, "#f5f5f5")
        for r in pts:
            px = pad + (r["x"] - xs.min()) / x_span * (size - 8) + 4
            py = y0 + size - ((r["y"] - ys.min()) / y_span * (size - 8) + 4)
            canvas.circle(px, py, 3, "#1f77b4" if r["label"] == 0 else "#ff7f0e")
        y0 += size + pad
    data.write_text(path, canvas.render())
