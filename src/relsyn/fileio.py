"""Plain-text file formats shared by the library and the CLI.

Matrix files: first line ``rows cols``, then `rows` lines of
whitespace-separated decimals.  FIR files: first line ``p m T`` followed by
T+1 matrix blocks in tap order.  Structure files: ``rows cols`` then a
delay matrix whose entries are nonnegative integers or ``inf``.  Plant
files hold named matrix blocks (A, B1, B2, C1, D12 and optionally C2),
each introduced by its name on a line of its own.  Problem bundles are
``key = value`` lines with paths resolved against the bundle's directory.

Lines starting with ``#`` are comments everywhere.  Every file is read
as UTF-8, and a bundle key or a plant block given twice is an error.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError
from .lti import FirSystem, Plant
from .structure import InfoStructure


def _lines(path: str) -> list:
    """The lines of a UTF-8 text file; a DomainError names the path when
    the file cannot be read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


class _Tokens:
    """The whitespace-separated tokens of a file, read front to back.

    Each token keeps the line it came from, so that every error names
    the file, the line and the token found there (or the end of the
    file).
    """

    def __init__(self, path: str):
        lines = _lines(path)
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
            [number(f"{self.path}:{line}", tok) for line, tok in self.entries(count, what)]
        )

    def end(self, count: int) -> None:
        """Reject tokens left after the `count` entries of the body."""
        if self.pos < len(self.toks):
            raise self.error(f"expected end of file after {count} entries")


def number(where: str, tok: str, kind=float):
    """`kind(tok)`, or a DomainError naming `where` and the token.

    `where` is the file, followed by ``:line`` when the line is known.
    """
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"{where}: expected {what}, found {tok!r}") from None


def _rows(M) -> str:
    """One line per row of M, 17 significant digits."""
    return "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in M)


def write_text(path: str, text: str) -> None:
    """Write `text` with LF line endings; a DomainError names the path
    when the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def write_texts(texts: dict) -> None:
    """Write each path's text, in order, by :func:`write_text`.  When one
    write fails, the files written before it are removed, so that a
    failed command leaves no partial output."""
    written = []
    try:
        for path, text in texts.items():
            write_text(path, text)
            written.append(path)
    except DomainError:
        for path in written:
            os.remove(path)
        raise


def read_matrix(path: str) -> np.ndarray:
    toks = _Tokens(path)
    rows, cols = toks.sizes("rows cols")
    M = toks.numbers(rows * cols, "the matrix").reshape(rows, cols)
    toks.end(rows * cols)
    return M


def write_matrix(path: str, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    write_text(path, f"{M.shape[0]} {M.shape[1]}\n" + _rows(M))


def read_fir(path: str) -> FirSystem:
    toks = _Tokens(path)
    p, m, T = toks.sizes("p m T")
    taps = toks.numbers((T + 1) * p * m, "the taps").reshape(T + 1, p, m)
    toks.end((T + 1) * p * m)
    return FirSystem(taps)


def fir_text(f: FirSystem) -> str:
    """The contents of an FIR file holding `f`."""
    taps = "".join("\n" + _rows(tap) for tap in f.taps)
    return f"{f.n_outputs} {f.n_inputs} {f.horizon}\n{taps}"


def write_fir(path: str, f: FirSystem) -> None:
    write_text(path, fir_text(f))


def read_structure(path: str) -> InfoStructure:
    toks = _Tokens(path)
    rows, cols = toks.sizes("rows cols")
    vals = [
        np.inf if tok.lower() == "inf" else float(number(f"{path}:{line}", tok, int))
        for line, tok in toks.entries(rows * cols, "the delay matrix")
    ]
    toks.end(rows * cols)
    return InfoStructure(np.array(vals).reshape(rows, cols))


def write_structure(path: str, s: InfoStructure) -> None:
    body = "".join(
        " ".join("inf" if not np.isfinite(x) else str(int(x)) for x in row) + "\n"
        for row in s.min_delay
    )
    write_text(path, f"{s.rows} {s.cols}\n{body}")


_PLANT_BLOCKS = ("A", "B1", "B2", "C1", "D12", "C2")


def read_plant(path: str) -> dict:
    """Read a plant file into a dict from block name to matrix.

    A, B1, B2, C1 and D12 are required and C2 is optional; when the file
    omits C2, :func:`plant_from_blocks` takes the sensing matrix
    separately.  A block given twice is an error.
    """
    toks = _Tokens(path)
    blocks = {}
    while (name := toks.peek()) is not None:
        if name not in _PLANT_BLOCKS:
            raise toks.error(f"expected a block name, one of {', '.join(_PLANT_BLOCKS)}")
        if name in blocks:
            raise DomainError(f"{path}:{toks.toks[toks.pos][0]}: repeated block {name!r}")
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
    blocks = ((name, getattr(p, name)) for name in _PLANT_BLOCKS)
    write_text(
        path, "".join(f"{name}\n{M.shape[0]} {M.shape[1]}\n" + _rows(M) for name, M in blocks)
    )


def read_bundle(path: str, keys: tuple) -> dict:
    """Parse ``key = value`` lines, each key one of `keys`; path-valued
    entries stay as written and are resolved against the bundle's
    directory by `bundle_path`.  A key given twice is an error."""
    out = {"_dir": os.path.dirname(os.path.abspath(path))}
    for lineno, line in enumerate(_lines(path), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in body.split("=", 1))
        if key not in keys:
            raise DomainError(
                f"{path}:{lineno}: unknown key {key!r}, expected one of {', '.join(keys)}"
            )
        if key in out:
            raise DomainError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = val
    return out


def bundle_path(bundle: dict, key: str) -> str:
    return os.path.join(bundle["_dir"], bundle[key])
