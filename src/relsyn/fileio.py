"""Plain-text file formats shared by the library and the CLI.

Matrix files: first line ``rows cols``, then `rows` lines of
whitespace-separated decimals.  FIR files: first line ``p m T`` followed by
T+1 matrix blocks in tap order.  Structure files: ``rows cols`` then a
delay matrix whose entries are nonnegative integers or ``inf``.  Plant
files hold named matrix blocks (A, B1, B2, C1, D12 and optionally C2),
each introduced by its name on a line of its own.  Problem bundles are
``key = value`` lines with paths resolved against the bundle's directory.

Lines starting with ``#`` are comments everywhere.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError
from .lti import FirSystem, Plant
from .structure import InfoStructure


def _tokens(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    toks = []
    for line in lines:
        body = line.split("#", 1)[0]
        toks.extend(body.split())
    return toks


def _number(path: str, tok: str, kind=float):
    """`kind(tok)`, or a DomainError naming the file and the token."""
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"{path}: expected {what}, found {tok!r}") from None


def _sizes(path: str, toks) -> list:
    """Header sizes: nonnegative integers."""
    sizes = [_number(path, t, int) for t in toks]
    if any(v < 0 for v in sizes):
        raise DomainError(f"{path}: negative size in header {' '.join(toks)!r}")
    return sizes


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def read_matrix(path: str) -> np.ndarray:
    toks = _tokens(path)
    if len(toks) < 2:
        raise DomainError(f"{path}: missing 'rows cols' header")
    rows, cols = _sizes(path, toks[:2])
    body = toks[2:]
    if len(body) != rows * cols:
        raise DomainError(
            f"{path}: expected {rows * cols} entries, found {len(body)}"
        )
    return np.array([_number(path, t) for t in body]).reshape(rows, cols)


def write_matrix(path: str, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_fir(path: str) -> FirSystem:
    toks = _tokens(path)
    if len(toks) < 3:
        raise DomainError(f"{path}: missing 'p m T' header")
    p, m, T = _sizes(path, toks[:3])
    body = toks[3:]
    if len(body) != (T + 1) * p * m:
        raise DomainError(
            f"{path}: expected {(T + 1) * p * m} entries, found {len(body)}"
        )
    taps = np.array([_number(path, t) for t in body]).reshape(T + 1, p, m)
    return FirSystem(taps)


def write_fir(path: str, f: FirSystem) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{f.n_outputs} {f.n_inputs} {f.horizon}\n")
        for k in range(f.horizon + 1):
            fh.write("\n")
            for row in f.taps[k]:
                fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_structure(path: str) -> InfoStructure:
    toks = _tokens(path)
    if len(toks) < 2:
        raise DomainError(f"{path}: missing 'rows cols' header")
    rows, cols = _sizes(path, toks[:2])
    body = toks[2:]
    if len(body) != rows * cols:
        raise DomainError(
            f"{path}: expected {rows * cols} entries, found {len(body)}"
        )
    vals = [
        np.inf if t.lower() == "inf" else float(_number(path, t, int)) for t in body
    ]
    return InfoStructure(np.array(vals).reshape(rows, cols))


def write_structure(path: str, s: InfoStructure) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{s.rows} {s.cols}\n")
        for row in s.min_delay:
            fh.write(
                " ".join("inf" if not np.isfinite(x) else str(int(x)) for x in row)
                + "\n"
            )


_PLANT_BLOCKS = ("A", "B1", "B2", "C1", "D12", "C2")


def read_plant(path: str) -> tuple:
    """Read a plant file; returns (Plant-or-None-C2 dict) as (blocks dict).

    The C2 block is optional; callers that need a full :class:`Plant`
    should pass the measured C2 separately when the file omits it.
    """
    toks = _tokens(path)
    blocks = {}
    pos = 0
    while pos < len(toks):
        name = toks[pos]
        if name not in _PLANT_BLOCKS:
            raise DomainError(f"{path}: unexpected block name {name!r}")
        header = toks[pos + 1 : pos + 3]
        if len(header) != 2 or not all(t.isdigit() for t in header):
            raise DomainError(f"{path}: block {name!r} needs a 'rows cols' header")
        rows, cols = _sizes(path, header)
        body = toks[pos + 3 : pos + 3 + rows * cols]
        if len(body) != rows * cols:
            raise DomainError(f"{path}: truncated block {name!r}")
        blocks[name] = np.array([_number(path, t) for t in body]).reshape(rows, cols)
        pos += 3 + rows * cols
    missing = [b for b in ("A", "B1", "B2", "C1", "D12") if b not in blocks]
    if missing:
        raise DomainError(f"{path}: missing plant blocks {missing}")
    return blocks


def plant_from_blocks(blocks: dict, c2=None) -> Plant:
    C2 = blocks.get("C2") if c2 is None else np.asarray(c2, dtype=float)
    if C2 is None:
        raise DomainError("plant has no C2 block and no sensing matrix was supplied")
    return Plant(
        A=blocks["A"],
        B1=blocks["B1"],
        B2=blocks["B2"],
        C1=blocks["C1"],
        D12=blocks["D12"],
        C2=C2,
    )


def write_plant(path: str, p: Plant) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, M in (
            ("A", p.A),
            ("B1", p.B1),
            ("B2", p.B2),
            ("C1", p.C1),
            ("D12", p.D12),
            ("C2", p.C2),
        ):
            fh.write(f"{name}\n{M.shape[0]} {M.shape[1]}\n")
            for row in M:
                fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_bundle(path: str) -> dict:
    """Parse ``key = value`` lines; path-valued entries stay as written
    and are resolved against the bundle's directory by `bundle_path`."""
    out = {"_dir": os.path.dirname(os.path.abspath(path))}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value'")
                key, val = body.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    return out


def bundle_path(bundle: dict, key: str) -> str:
    return os.path.join(bundle["_dir"], bundle[key])
