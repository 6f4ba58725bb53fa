"""Every file format: the files the workbench writes and the series it reads.

All numeric output uses the shortest round-trip decimal representation, so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .analysis import FitResult, RdsSample, normalize_series
from .campaign import CampaignResult, CellResult
from .converter import SteadyStateMetrics, Waveform
from .errors import InvalidParameterError

RDS_CSV_HEADER = "t_min,rds_on_ohm"
CELL_CSV_HEADER = RDS_CSV_HEADER + ",rds_norm"
SUMMARY_HEADER = "cell,v_stress_V,v_max_V,temp_K,slope_ohm_per_ln_min,intercept_ohm,r_squared"
WAVEFORM_CSV_HEADER = "t_s,v_ds_V,i_l_A,v_out_V,gate_on"

#: Rows per ``stream.write`` of ``write_waveform_csv``.
_CSV_CHUNK_ROWS = 4096

#: Text of the last two digits ``r`` of an integer-built time (see
#: ``write_waveform_csv``), trailing zeros stripped; ``r = 0`` is unused.
_TIME_SUFFIX = np.array([f"{r:02d}".rstrip("0") for r in range(100)], dtype=object)

#: Text of the gate column, indexed by the gate state.
_GATE_TEXT = np.array(["0", "1"], dtype=object)

EmittableResult = Union[CampaignResult, Waveform]


def _write_text(path: Path, text: str) -> Path:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return path


def _record(**values) -> str:
    """Flat record, one ``key = repr(value)`` line per key, in argument order."""
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def fit_report(fit: FitResult) -> str:
    """Flat key-value record of a fit; ``n_dropped`` only when non-zero."""
    dropped = {"n_dropped": fit.n_dropped} if fit.n_dropped else {}
    return _record(slope=fit.slope, intercept=fit.intercept, r_squared=fit.r_squared,
                   n=fit.n, slope_log10=fit.slope_log10, **dropped)


def read_rds_csv(stream: TextIO) -> list[RdsSample]:
    """Read the first two columns of a series CSV or a campaign cell CSV;
    every row has as many columns as its header."""
    header = stream.readline().strip()
    if header not in (RDS_CSV_HEADER, CELL_CSV_HEADER):
        raise InvalidParameterError(
            f"expected header {RDS_CSV_HEADER!r} or {CELL_CSV_HEADER!r}, got {header!r}"
        )
    n_columns = header.count(",") + 1
    samples = []
    for lineno, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise InvalidParameterError(f"line {lineno}: expected {n_columns} columns, got {line!r}")
        try:
            samples.append(RdsSample(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InvalidParameterError(f"line {lineno}: {exc}") from exc
    return samples


def _distinct_reprs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of each distinct bit pattern of ``a`` (so ``0.0`` and
    ``-0.0`` stay apart), and the index of each element's pattern."""
    _, first, inverse = np.unique(a.view(f"u{a.itemsize}"), return_index=True, return_inverse=True)
    return np.array([repr(x) for x in a[first].tolist()], dtype=object), inverse


def _decimal_places(x: float) -> int:
    """Digits after the point of ``x`` written out as its ``repr`` decimal
    (``1e-08`` -> 8, ``2.5e-07`` -> 8, ``0.0125`` -> 4, ``1e+16`` -> -16)."""
    mantissa, _, exponent = repr(float(x)).partition("e")
    return len(mantissa.partition(".")[2]) - int(exponent or 0)


def _time_head(q: int, p: int) -> tuple[str, str]:
    """The text around the last two digits of ``repr((100*q + r) / 10.0**p)``
    for ``1 <= q < 10**13``, ``1 <= r <= 99`` and ``p >= 2``: everything
    before them, and the exponent after them (empty in fixed-point)."""
    s = str(q)
    if len(s) + 5 >= p:  # the value is >= 1e-4: fixed-point
        s = s.rjust(p - 1, "0")
        cut = len(s) - (p - 2)
        return s[:cut] + "." + s[cut:], ""
    return s[0] + "." + s[1:], f"e-{p - 1 - len(s):02d}"


def _time_texts(t: np.ndarray, p: int) -> list[str]:
    """``repr`` of each time in ``t``, built from integers where ``t[k]`` is
    the correctly rounded ``N * 10**-p`` (see ``write_waveform_csv``)."""
    scale = 10.0 ** p
    x = np.rint(np.clip(t, 0.0, 2.0**53 / scale) * scale)  # finite, and exact as an integer
    fast = (x >= 100.0) & (x < 1e15) & (np.fmod(x, 100.0) != 0.0) & (x / scale == t)
    text = np.empty(len(t), dtype=object)
    slow = ~fast
    text[slow] = [repr(v) for v in t[slow].tolist()]
    if fast.any():
        q, r = np.divmod(x[fast].astype(np.int64), 100)
        new = np.concatenate(([True], q[1:] != q[:-1]))
        heads, tails = np.array([_time_head(v, p) for v in q[new].tolist()], dtype=object).T
        run = np.cumsum(new) - 1
        text[fast] = heads[run] + _TIME_SUFFIX[r] + tails[run]
    return text.tolist()


def write_waveform_csv(w: Waveform, stream: TextIO) -> None:
    """Write the exact waveform CSV format (gate_on encoded as 1/0).

    Every float is written as its ``repr``, the shortest string that reads
    back to the same float. The ``repr`` of a ``v_ds`` / ``i_l`` / ``v_out``
    value is computed once per distinct bit pattern (a marched run repeats
    few values). A time is built from integers when it is an exact short
    decimal: with ``p`` the decimal places of ``repr(t[1])`` (from 2 to 22,
    so ``10.0**p`` is exact) and ``N = rint(t * 10**p)``, when
    ``100 <= N < 10**15``, ``N % 100 != 0`` and ``N / 10.0**p == t``
    bitwise. That division of two exact operands is correctly rounded, and
    no other decimal of at most 15 significant digits rounds to the same
    double, so ``repr`` prints ``N * 10**-p`` with trailing zeros stripped:
    the text of ``N // 100`` (one per distinct value) plus that of the last
    two digits (a table), in ``repr``'s layout, scientific below 1e-4 (the
    value is below 1e13, so the switch at 1e16 is never reached). Every
    other time (zero, negative, or not such a decimal) is written by ``repr``.
    Rows are written in chunks of ``_CSV_CHUNK_ROWS``, so no whole-file
    string is built.
    """
    stream.write(WAVEFORM_CSV_HEADER + "\n")
    p = _decimal_places(w.t[1]) if len(w) >= 2 else 0
    columns = [_distinct_reprs(a) for a in (w.v_ds, w.i_l, w.v_out)]
    for lo in range(0, len(w), _CSV_CHUNK_ROWS):
        hi = lo + _CSV_CHUNK_ROWS
        t = w.t[lo:hi]
        times = _time_texts(t, p) if 2 <= p <= 22 else list(map(repr, t.tolist()))
        rows = zip(times, *(text[index[lo:hi]].tolist() for text, index in columns),
                   _GATE_TEXT[w.gate_on[lo:hi].astype(np.intp)].tolist())
        stream.write("\n".join(map(",".join, rows)) + "\n")


def _cell_csv(result: CellResult) -> str:
    lines = [CELL_CSV_HEADER]
    norm = normalize_series(result.samples) if result.samples else []
    for s, ns in zip(result.samples, norm):
        lines.append(f"{s.t!r},{s.rds_on!r},{ns.rds_on!r}")
    return "\n".join(lines) + "\n"


def _summary_row(idx: int, result: CellResult) -> str:
    fit = result.fit
    stats = ",".join(map(repr, (fit.slope, fit.intercept, fit.r_squared))) if fit else ",,"
    return (f"cell{idx:02d},{result.cell.v_stress!r},{result.v_max_measured!r},"
            f"{result.cell.temp!r},{stats}")


def emit_campaign(result: CampaignResult, out_dir: Path) -> list[Path]:
    paths = []
    rows = [SUMMARY_HEADER]
    for idx, cell_result in enumerate(result.cells):
        paths.append(_write_text(out_dir / f"cell{idx:02d}.csv", _cell_csv(cell_result)))
        rows.append(_summary_row(idx, cell_result))
    paths.append(_write_text(out_dir / "summary.csv", "\n".join(rows) + "\n"))
    return paths


def emit_waveform(w: Waveform, out_dir: Path) -> list[Path]:
    path = out_dir / "waveform.csv"
    try:
        with open(path, "w") as stream:
            write_waveform_csv(w, stream)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return [path]


def emit_fit(fit: FitResult, out_dir: Path) -> list[Path]:
    return [_write_text(out_dir / "fit.txt", fit_report(fit))]


def emit_metrics(m: SteadyStateMetrics, out_dir: Path) -> list[Path]:
    return [_write_text(out_dir / "metrics.txt",
                        _record(v_max_V=m.v_max, v_in_avg_V=m.v_in_avg,
                                i_avg_A=m.i_avg, i_peak_A=m.i_peak))]


def emit_results(result: EmittableResult, out_dir: Path) -> list[Path]:
    """Write a result's files into ``out_dir`` and return the manifest."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise OSError(f"output directory {out_dir} does not exist")
    if isinstance(result, CampaignResult):
        return emit_campaign(result, out_dir)
    if isinstance(result, Waveform):
        return emit_waveform(result, out_dir)
    raise TypeError(f"cannot emit result of type {type(result).__name__}")
