"""Flat key=value experiment configs and the built-in presets.

A config is a two-level mapping section -> key -> string.  Keeping the
canonical representation textual makes the write/parse round trip exact
by construction.  Typed accessors parse values on demand; a missing key
without a default, or a value that does not parse, is a config error, and
so is a number that is NaN or infinite.  A config remembers which keys were
asked for, so a key that the command never reads can be reported.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .errors import ConfigurationError

__all__ = ["ExperimentConfig", "preset", "preset_names", "COMMANDS"]

COMMANDS = ("solve", "mkl", "path-integral", "mercer", "unify")

_SECTION_ORDER = (
    "experiment", "system", "eigenvalue", "kernel", "grid",
    "penalties", "path_integral", "mkl", "mercer", "unify",
)

SCHEMA_VERSION = "1"

def _parse_finite(v: str) -> float:
    if not math.isfinite(x := float(v)):
        raise ValueError(v)
    return x


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # (section, key) pairs asked for through has() and get(), set or not
    _asked: Set[Tuple[str, str]] = field(default_factory=set, init=False,
                                         compare=False, repr=False)

    # -- raw access helpers -------------------------------------------------

    def has(self, section: str, key: Optional[str] = None) -> bool:
        if key is not None:
            self._asked.add((section, key))
        if section not in self.sections:
            return False
        return key is None or key in self.sections[section]

    def get(self, section: str, key: str, default: Optional[str] = None) -> str:
        """The raw value; a missing key without a default is a config error."""
        self._asked.add((section, key))
        v = self.sections.get(section, {}).get(key, default)
        if v is None:
            raise ConfigurationError(f"missing config key [{section}] {key}")
        return v

    def _parsed(self, section: str, key: str, default, parse, what: str):
        if default is not None and not self.has(section, key):
            return default
        v = self.get(section, key)
        try:
            return parse(v)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}] {key} is not {what}: {v!r}") from exc

    def get_float(self, section: str, key: str, default: Optional[float] = None) -> float:
        return self._parsed(section, key, default, _parse_finite, "a finite number")

    def get_int(self, section: str, key: str, default: Optional[int] = None) -> int:
        return self._parsed(section, key, default, int, "an integer")

    # -- derived values ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.get("experiment", "name")

    @property
    def command(self) -> str:
        return self.get("experiment", "command")

    def grid_spec(self) -> Tuple[List[Tuple[float, float]], List[int]]:
        bounds = []
        try:
            for part in self.get("grid", "bounds").split(","):
                lo, sep, hi = part.strip().partition(":")
                if not sep:
                    raise ConfigurationError(f"grid bounds need lo:hi pairs, got {part!r}")
                bounds.append((float(lo), float(hi)))
            counts = [int(c) for c in self.get("grid", "counts").split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"[grid] bounds or counts not numeric: {exc}") from exc
        if len(counts) != len(bounds):
            raise ConfigurationError("grid bounds and counts disagree on dimension")
        return bounds, counts

    def kernel_spec(self) -> Dict[str, str]:
        """Every [kernel] key, all of which count as asked for."""
        if not self.has("kernel"):
            raise ConfigurationError("missing [kernel] section")
        self._asked.update(("kernel", k) for k in self.sections["kernel"])
        return dict(self.sections["kernel"])

    def unread_keys(self) -> List[str]:
        """The keys set but never asked for, as '[section] key'."""
        return [f"[{s}] {k}" for s, entries in self.sections.items()
                for k in entries if (s, k) not in self._asked]

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "ExperimentConfig":
        parser = configparser.RawConfigParser()
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"config parse error: {exc}") from exc
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
        return cls(sections=sections)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_string(fh.read())
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc

    def to_string(self) -> str:
        out = io.StringIO()
        known = [s for s in _SECTION_ORDER if s in self.sections]
        extra = [s for s in self.sections if s not in _SECTION_ORDER]
        for sec in known + extra:
            out.write(f"[{sec}]\n")
            for k, v in self.sections[sec].items():
                out.write(f"{k} = {v}\n")
            out.write("\n")
        return out.getvalue()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_string())


def _base(name: str, command: str) -> Dict[str, Dict[str, str]]:
    return {
        "experiment": {
            "name": name,
            "command": command,
            "schema_version": SCHEMA_VERSION,
        }
    }


def _cubic1d_solve(name: str, kernel: Dict[str, str]) -> ExperimentConfig:
    s = _base(name, "solve")
    s["system"] = {"name": "cubic1d"}
    s["eigenvalue"] = {"value": "1"}
    s["kernel"] = kernel
    s["grid"] = {"bounds": "-0.99:0.99", "counts": "199"}
    s["penalties"] = {"eta": "1e-8", "mu_grad": "1e4"}
    return ExperimentConfig(sections=s)


def _poly2d_mkl(name: str, eig_index: int) -> ExperimentConfig:
    s = _base(name, "mkl")
    s["system"] = {"name": "poly2d"}
    s["eigenvalue"] = {"index": str(eig_index)}
    s["grid"] = {"bounds": "-1:1, -1:1", "counts": "21, 21"}
    s["penalties"] = {"eta": "1e-8", "mu_grad": "1e4"}
    s["mkl"] = {"tau": "0.1", "max_iter": "200", "gtol": "1e-6"}
    return ExperimentConfig(sections=s)


def _presets() -> Dict[str, ExperimentConfig]:
    out: Dict[str, ExperimentConfig] = {}
    out["cubic1d_singular"] = _cubic1d_solve("cubic1d_singular", {"family": "singular_1d"})
    out["cubic1d_rbf"] = _cubic1d_solve(
        "cubic1d_rbf", {"family": "gaussian", "ell": "0.3"}
    )

    s = _base("poly2d_kernel_study", "solve")
    s["system"] = {"name": "poly2d"}
    s["eigenvalue"] = {"index": "1"}   # slow mode, rate -1
    s["kernel"] = {"family": "polynomial", "degree": "2", "coef0": "0.5"}
    s["grid"] = {"bounds": "-1:1, -1:1", "counts": "21, 21"}
    s["penalties"] = {"eta": "1e-8", "mu_grad": "1e4"}
    out["poly2d_kernel_study"] = ExperimentConfig(sections=s)

    out["poly2d_mkl_l1"] = _poly2d_mkl("poly2d_mkl_l1", 1)
    out["poly2d_mkl_l2eig"] = _poly2d_mkl("poly2d_mkl_l2eig", 0)

    s = _base("duffing_char", "path-integral")
    s["system"] = {"name": "duffing"}
    s["eigenvalue"] = {"index": "0"}   # unstable rate of the saddle
    s["grid"] = {"bounds": "-2:2, -2:2", "counts": "25, 25"}
    s["path_integral"] = {"T": "15", "M": "1500"}
    out["duffing_char"] = ExperimentConfig(sections=s)

    s = _base("unify_advection", "unify")
    s["unify"] = {
        "c": "1", "lam": "1",
        "grid_lo": "-5", "grid_hi": "5", "grid_n": "20",
        "rule_lo": "-30", "rule_hi": "30", "rule_n": "4001",
        "scheme": "trapezoid",
    }
    out["unify_advection"] = ExperimentConfig(sections=s)
    return out


def preset_names() -> Tuple[str, ...]:
    return tuple(_presets().keys())


def preset(name: str) -> ExperimentConfig:
    table = _presets()
    if name not in table:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(table)}"
        )
    return table[name]
