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


class _Tokens:
    """The whitespace-separated tokens of a file, read front to back.

    Each token keeps the line it came from, so that every error names
    the file, the line and the token found there (or the end of the
    file).
    """

    def __init__(self, path: str):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise DomainError(f"cannot read {path}: {exc}") from exc
        self.path = path
        self.toks = [
            (lineno, tok)
            for lineno, line in enumerate(lines, 1)
            for tok in line.split("#", 1)[0].split()
        ]
        self.last_line = max(len(lines), 1)
        self.pos = 0

    def peek(self) -> str | None:
        """The next unread token, or None at the end of the file."""
        return self.toks[self.pos][1] if self.pos < len(self.toks) else None

    def error(self, what: str) -> DomainError:
        """A DomainError for `what`, located at the next unread token."""
        if self.pos < len(self.toks):
            line, tok = self.toks[self.pos]
            return DomainError(f"{self.path}:{line}: {what}, found {tok!r}")
        return DomainError(f"{self.path}:{self.last_line}: {what}, found end of file")

    def sizes(self, header: str) -> list:
        """One nonnegative integer per name in `header`, e.g. "rows cols"."""
        out = []
        for _ in header.split():
            tok = self.peek()
            if tok is None or not tok.removeprefix("-").isdecimal():
                raise self.error(f"expected an integer in the {header!r} header")
            if tok.startswith("-"):
                raise self.error(f"negative size in the {header!r} header")
            out.append(int(tok))
            self.pos += 1
        return out

    def entries(self, count: int, what: str) -> list:
        """The next `count` (line, token) pairs, unconverted."""
        if len(self.toks) - self.pos < count:
            self.pos = len(self.toks)
            raise self.error(f"expected {count} entries for {what}")
        self.pos += count
        return self.toks[self.pos - count : self.pos]

    def numbers(self, count: int, what: str) -> np.ndarray:
        """The next `count` tokens as floats."""
        return np.array(
            [_number(f"{self.path}:{line}", tok) for line, tok in self.entries(count, what)]
        )

    def end(self, count: int) -> None:
        """Reject tokens left after the `count` entries of the body."""
        if self.pos < len(self.toks):
            raise self.error(f"expected end of file after {count} entries")


def _number(where: str, tok: str, kind=float):
    """`kind(tok)`, or a DomainError naming `where` and the token.

    `where` is the file, followed by ``:line`` when the line is known.
    """
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"{where}: expected {what}, found {tok!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def read_matrix(path: str) -> np.ndarray:
    toks = _Tokens(path)
    rows, cols = toks.sizes("rows cols")
    M = toks.numbers(rows * cols, "the matrix").reshape(rows, cols)
    toks.end(rows * cols)
    return M


def write_matrix(path: str, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_fir(path: str) -> FirSystem:
    toks = _Tokens(path)
    p, m, T = toks.sizes("p m T")
    taps = toks.numbers((T + 1) * p * m, "the taps").reshape(T + 1, p, m)
    toks.end((T + 1) * p * m)
    return FirSystem(taps)


def write_fir(path: str, f: FirSystem) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{f.n_outputs} {f.n_inputs} {f.horizon}\n")
        for k in range(f.horizon + 1):
            fh.write("\n")
            for row in f.taps[k]:
                fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_structure(path: str) -> InfoStructure:
    toks = _Tokens(path)
    rows, cols = toks.sizes("rows cols")
    vals = [
        np.inf if tok.lower() == "inf" else float(_number(f"{path}:{line}", tok, int))
        for line, tok in toks.entries(rows * cols, "the delay matrix")
    ]
    toks.end(rows * cols)
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
    toks = _Tokens(path)
    blocks = {}
    while (name := toks.peek()) is not None:
        if name not in _PLANT_BLOCKS:
            raise toks.error(f"expected a block name, one of {', '.join(_PLANT_BLOCKS)}")
        toks.pos += 1
        rows, cols = toks.sizes("rows cols")
        body = toks.numbers(rows * cols, f"block {name!r}")
        blocks[name] = body.reshape(rows, cols)
    missing = [b for b in ("A", "B1", "B2", "C1", "D12") if b not in blocks]
    if missing:
        raise toks.error(f"missing plant blocks {missing}")
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
