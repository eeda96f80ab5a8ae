"""Experiment configuration: flat `key = value` files with [section] headers."""

from __future__ import annotations

import configparser
import math
from fractions import Fraction


class UsageError(Exception):
    """Invalid command line, configuration or parameter combination."""


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file that cannot be read
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    except configparser.Error as exc:
        raise UsageError(f"config parse error: {exc}")
    return cp


def section(cp: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cp.has_section(name):
        raise UsageError(f"missing [{name}] section in config")
    return cp[name]


def parse_float(text: str, key: str) -> float:
    try:
        if "/" in text:
            return float(Fraction(text.strip()))
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"invalid number for '{key}': {text!r}")


def parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"invalid integer for '{key}': {text!r}")


# Largest number of values one 'a:b:step' range may expand to.
_MAX_RANGE_VALUES = 100_000


def parse_float_list(text: str, key: str) -> list[float]:
    """Comma list of numbers; 'a:b:step' expands to an inclusive range of
    at most _MAX_RANGE_VALUES values."""
    items: list[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.count(":") == 2:
            lo_s, hi_s, st_s = chunk.split(":")
            lo = parse_float(lo_s, key)
            hi = parse_float(hi_s, key)
            st = parse_float(st_s, key)
            span = (hi - lo) / st if st > 0 else math.nan
            if not (lo <= hi and 0.0 <= span < _MAX_RANGE_VALUES):
                raise UsageError(
                    f"invalid range for '{key}': {chunk!r} (finite bounds, "
                    f"positive step, at most {_MAX_RANGE_VALUES} values)")
            n = int(round(span))
            items.extend(lo + i * st for i in range(n + 1))
        else:
            items.append(parse_float(chunk, key))
    if not items:
        raise UsageError(f"'{key}' must contain at least one value")
    return items


def parse_ladder(text: str) -> list[tuple[int, int]]:
    """Comma list of M:N pairs, strictly refining in both directions."""
    pairs: list[tuple[int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"invalid ladder entry for 'ladder': {chunk!r}")
        pairs.append((parse_int(parts[0], "ladder"), parse_int(parts[1], "ladder")))
    if not pairs:
        raise UsageError("'ladder' must contain at least one M:N pair")
    for (m0, n0), (m1, n1) in zip(pairs, pairs[1:]):
        if m1 <= m0 or n1 <= n0:
            raise UsageError(f"'ladder' must be strictly refining, got {pairs}")
    return pairs
