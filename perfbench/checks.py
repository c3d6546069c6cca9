"""Output checks on the stdout of ``python -m repro.experiments all``.

The campaign's stdout is parsed for the paper's invariants and for the
seven averages it prints beside a published value.  A run whose stdout
breaks an invariant counts as failed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

_SECTION = re.compile(r"^=== (\S+) =+$", re.MULTILINE)
_FIG6_AVG = re.compile(r"avg latency: ([0-9.]+) us \(paper: ~([0-9.]+) us\)")
_FIG6_DELAYED = re.compile(r"^modes: .* delayed [0-9.]+% \((\d+)\)$",
                           re.MULTILINE)
_FIG7_ROW = re.compile(
    r"^\s*([a-d])\s+\S+\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*$",
    re.MULTILINE)
_BOUND_ROW = re.compile(r"^(.+?)\s+([0-9.]+)\s+([0-9.]+)\s+(yes|no)\s*$",
                        re.MULTILINE)
_VICTIM = re.compile(r"victim (\S+): holds=(True|False)")
_MISSES = re.compile(r"simulated deadline misses\s+(\d+)")

EXPERIMENTS = ("fig6a", "fig6b", "fig6c", "fig7", "tab62", "validation",
               "ablation", "sweep", "design")


class ParseError(ValueError):
    """The stdout does not have the shape of an ``all`` campaign."""


@dataclass(frozen=True)
class CampaignOutput:
    """The figures the checks need, parsed from one campaign's stdout."""

    #: fig6 scenario -> (measured avg latency us, paper avg latency us)
    fig6_avg: "dict[str, tuple[float, float]]"
    fig6c_delayed: int
    #: fig7 case -> (run avg us, paper run avg us)
    fig7_run_avg: "dict[str, tuple[int, int]]"
    #: validation bound rows: (analysis, holds)
    bound_rows: "tuple[tuple[str, bool], ...]"
    #: Eq. 14 victims: (partition, holds)
    victims: "tuple[tuple[str, bool], ...]"
    deadline_misses: int


def sections(stdout: str) -> "dict[str, str]":
    """Split the campaign stdout into its ``=== <experiment>`` sections."""
    heads = list(_SECTION.finditer(stdout))
    found = {}
    for position, head in enumerate(heads):
        end = heads[position + 1].start() if position + 1 < len(heads) \
            else len(stdout)
        found[head.group(1)] = stdout[head.end():end]
    missing = [name for name in EXPERIMENTS if name not in found]
    if missing:
        raise ParseError(f"stdout lacks sections {missing}")
    return found


def _one(pattern: "re.Pattern", text: str, what: str) -> "re.Match":
    match = pattern.search(text)
    if match is None:
        raise ParseError(f"no {what} line")
    return match


def parse(stdout: str) -> CampaignOutput:
    parts = sections(stdout)
    fig6_avg = {}
    for scenario in ("a", "b", "c"):
        match = _one(_FIG6_AVG, parts[f"fig6{scenario}"],
                     f"fig6{scenario} average latency")
        fig6_avg[scenario] = (float(match.group(1)), float(match.group(2)))
    delayed = int(_one(_FIG6_DELAYED, parts["fig6c"], "fig6c modes").group(1))
    fig7 = {match.group(1): (int(match.group(3)), int(match.group(4)))
            for match in _FIG7_ROW.finditer(parts["fig7"])}
    if sorted(fig7) != ["a", "b", "c", "d"]:
        raise ParseError(f"fig7 table has cases {sorted(fig7)}, not a-d")
    bounds = tuple((match.group(1).strip(), match.group(4) == "yes")
                   for match in _BOUND_ROW.finditer(parts["validation"]))
    victims = tuple((match.group(1), match.group(2) == "True")
                    for match in _VICTIM.finditer(parts["validation"]))
    if not bounds or not victims:
        raise ParseError("validation section lacks bound rows or victims")
    misses = int(_one(_MISSES, parts["design"], "design deadline misses")
                 .group(1))
    return CampaignOutput(fig6_avg, delayed, fig7, bounds, victims, misses)


def invariant_failures(output: CampaignOutput) -> "list[str]":
    """The paper's invariants that this output breaks (empty when all hold)."""
    failures = [f"validation bound {name!r} does not hold"
                for name, holds in output.bound_rows if not holds]
    failures += [f"Eq. 14 victim {name} holds=False"
                 for name, holds in output.victims if not holds]
    if output.deadline_misses != 0:
        failures.append(f"design: {output.deadline_misses} simulated "
                        "deadline misses")
    run = [output.fig7_run_avg[case][0] for case in "abcd"]
    if not run[0] < run[1] < run[2] < run[3]:
        failures.append(f"fig7 run averages {run} are not a < b < c < d")
    if output.fig6c_delayed != 0:
        failures.append(f"fig6c delayed {output.fig6c_delayed} IRQs")
    return failures


def paper_rel_error(output: CampaignOutput) -> float:
    """Mean |measured - paper| / paper over the seven published averages."""
    pairs = list(output.fig6_avg.values()) + list(output.fig7_run_avg.values())
    return sum(abs(measured - paper) / paper
               for measured, paper in pairs) / len(pairs)


def stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()
